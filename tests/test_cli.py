"""Command-line behaviour: formats, exit codes, determinism."""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt import cli, envelopes
from brt import io as bio
from brt.cli import main
from brt.envelopes import build_enveloping, compute_envelope
from brt.errors import ESTIMATE_MAX
from brt.structures import graph_language, make_language, make_structure
from brt.trees import (
    build_valuation_tree,
    full_tree_witness,
    level_nodes,
    seeded_witness,
    tree_language,
)
from brt.valuation import Signature

from conftest import (
    LOOKUP_LANGUAGES,
    brute_tree_to_dot,
    envelope_report,
    naive_encode_structure,
    prefix_structure,
    random_general_structure,
    tree_report,
    val_report,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    lang = graph_language()
    path = make_structure(lang, 3, {"e": [(0, 1), (1, 2)]}, hypergraph=True)
    tl = tree_language(Signature((3,)))
    edge = make_structure(tl, 2, {"r2c1": [(0, 1)]}, hypergraph=True)
    point = make_structure(tl, 1, {}, hypergraph=True)
    out = {}
    for name, obj in [("graph_lang", bio.language_to_json(lang)),
                      ("path3", bio.structure_to_json(path)),
                      ("edge", bio.structure_to_json(edge)),
                      ("point", bio.structure_to_json(point))]:
        p = tmp_path / f"{name}.json"
        p.write_text(bio.dumps_canonical(obj))
        out[name] = str(p)
    return out


def test_sig_bytes(files, capsys):
    code, out, err = run(capsys, "sig", "--lang", files["graph_lang"])
    assert (code, out, err) == (0, '{"prefix":[3],"tail":1}\n', "")


def test_envelope_report(files, capsys):
    code, out, _ = run(capsys, "envelope", "--k", "2", "--subset", "0,1",
                       "--prefix", files["path3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["levels"] == [0, 1, 3]
    assert rep["height"] == 3
    assert rep["contained"] is True
    assert all(rep["invariants"].values())
    assert len(rep["trace"]) == 3


def test_hl_colour(files, capsys):
    code, out, _ = run(capsys, "adversarial", "hl", "--node", "3")
    assert (code, out) == (0, '{"colour":3}\n')
    code, out, _ = run(capsys, "adversarial", "hl", "--node", "")
    assert (code, out) == (0, '{"colour":0}\n')


def test_degree_examples(files, capsys):
    code, out, _ = run(capsys, "degree", "--a", files["point"], "--height", "2")
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run(capsys, "degree", "--a", files["edge"], "--height", "2")
    assert code == 0 and json.loads(out)["count"] == 1


@pytest.mark.parametrize("name,error", [
    ("r2c1", None),
    ("r2c5", "symbol r2c5 does not fit the signature"),
    ("e", "symbol e of countable arity 2 is not named by an index"),
    ("r2c05", "symbol r2c05 of countable arity 2 is not named by an index"),
])
def test_degree_reads_a_countable_symbol_by_its_index(files, tmp_path, capsys, name, error):
    """A countable arity codes colours by the index in the symbol's name, not
    by its rank: ``r2c5`` alone is colour 5, which a bound of 3 cannot hold,
    and a name that is no symbol index is an input error."""
    lang = make_language((name, 2), countable_arities={2})
    s = make_structure(lang, 2, {name: [(0, 1)]}, hypergraph=True)
    p = tmp_path / "countable.json"
    p.write_text(bio.dumps_canonical(bio.structure_to_json(s)))
    argv = ("--sigma", "3", "--height", "3")
    got = run(capsys, "degree", "--a", str(p), *argv)
    if error is None:
        assert got == run(capsys, "degree", "--a", files["edge"], *argv)
    else:
        _one_line_error(*got, error)


def test_infeasible_exit_carries_cap_and_estimate(files, capsys):
    code, out, err = run(capsys, "degree", "--a", files["edge"], "--height", "17")
    assert code == 2 and out == ""
    info = json.loads(err)
    assert info["error"] == "infeasible"
    assert info["cap"] == 10 ** 6
    assert info["estimate"] > 10 ** 6


@pytest.mark.parametrize("level", [16, 64])
def test_estimates_past_the_printable_limit_saturate(capsys, level):
    # Level 16 has 3^65519 nodes (31,261 digits); at level 64 the exact count
    # has about 9 * 10^18 digits and could not be built at all.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "tree", "--sigma", "1:3", "--level", str(level))
    assert (code, out) == (2, "")
    assert err == bio.dumps_canonical({"cap": 10 ** 6, "error": "infeasible",
                                       "estimate": ESTIMATE_MAX,
                                       "what": f"level {level} enumeration"})
    code, out, err = run(capsys, "tree", "--sigma", "1:3", "--level", str(level),
                         "--count-only")
    _one_line_error(code, out, err, f"level {level} has at least 10^4300 - 1 nodes, "
                                    "past the 4300-digit limit of exact counts")
    assert time.perf_counter() - t0 < 1.0


def test_reduce_encode_of_a_huge_catalogue_exits_two(tmp_path, capsys):
    # 8! = 40,320 (symbol, permutation) pairs: 2^40320 has 12,138 digits.
    big = make_structure(make_language(("R", 8)), 8, {"R": [tuple(range(8))]})
    p = tmp_path / "big.json"
    p.write_text(bio.dumps_canonical(bio.structure_to_json(big)))
    code, out, err = run(capsys, "reduce", "encode", "--in", str(p))
    assert (code, out) == (2, "")
    assert err == bio.dumps_canonical({"cap": 2 ** 20, "error": "infeasible",
                                       "estimate": ESTIMATE_MAX,
                                       "what": "encoded language of arity 8"})


# Not the two-unary language: a vertex in both unaries has no hypergraph encoding.
@pytest.mark.parametrize("lang", LOOKUP_LANGUAGES[1:], ids=["binary", "ternary", "mixed"])
def test_reduce_encode_matches_the_scanning_encoder(tmp_path, capsys, lang):
    rng = random.Random(11)
    p = tmp_path / "a.json"
    for _ in range(10):
        a = random_general_structure(lang, rng.randint(0, 6), rng, rng.choice((0.2, 0.5)))
        p.write_text(bio.dumps_canonical(bio.structure_to_json(a)))
        want = bio.dumps_canonical(bio.structure_to_json(naive_encode_structure(a)))
        assert run(capsys, "reduce", "encode", "--in", str(p)) == (0, want, "")


@pytest.mark.parametrize("argv", [
    ("--sigma", "3", "--level", "4"),
    ("--sigma", "2,3", "--level", "3"),
    ("--sigma", "2,3", "--shift", "1", "--level", "3"),
    ("--sigma", "1,2", "--level", "0"),
    ("--sigma", "2,3,2", "--level", "3"),
])
def test_tree_output_matches_the_dict_form(capsys, argv):
    args = cli.PARSER.parse_args(["tree", *argv])
    nodes = level_nodes(bio.parse_signature(args.sigma), args.shift, args.level)
    assert run(capsys, "tree", *argv) == (0, bio.dumps_canonical(tree_report(nodes)), "")
    table = "".join(bio.dumps_canonical(bio.valuation_to_json(f)) for f in nodes)
    assert run(capsys, "tree", *argv, "--output", "table") == (0, table, "")


@pytest.mark.parametrize("sig,height,seed", [
    (Signature((3,)), 3, None),
    (Signature((2, 3)), 4, None),
    (Signature((3,)), 4, 5),
    (Signature((2, 3)), 4, 9),
    (Signature((2, 3, 2)), 4, 1),
])
def test_val_output_matches_the_dict_form(capsys, sig, height, seed):
    sigma = ",".join(map(str, sig.prefix))
    if seed is None:
        witness, flags = full_tree_witness(sig, height, height), ("--full",)
    else:
        witness, flags = seeded_witness(sig, height, height, seed), ("--seed", str(seed))
    want = bio.dumps_canonical(val_report(build_valuation_tree(witness)))
    assert run(capsys, "val", "--sigma", sigma, "--height", str(height), *flags) == (0, want, "")


@pytest.mark.parametrize("kind,size,k,subset", [
    ("path3", 3, 2, (0, 1)),
    ("graph", 6, 3, (1, 3, 5)),
    ("graph", 6, 2, (0, 4)),
    ("ternary", 5, 3, (0, 2, 4)),
])
def test_envelope_output_matches_the_dict_form(files, tmp_path, capsys, kind, size, k, subset):
    if kind == "path3":
        path = files["path3"]
        structure = bio.structure_from_json(json.loads(Path(path).read_text()))
    else:
        structure = prefix_structure(kind, size)
        path = str(tmp_path / "prefix.json")
        Path(path).write_text(bio.dumps_canonical(bio.structure_to_json(structure)))
    emb = build_enveloping(structure, k)
    want = bio.dumps_canonical(envelope_report(compute_envelope(emb, subset), emb))
    assert run(capsys, "envelope", "--prefix", path, "--k", str(k),
               "--subset", ",".join(map(str, subset))) == (0, want, "")


def _prefix_file(tmp_path, structure) -> str:
    path = tmp_path / "prefix.json"
    path.write_text(bio.dumps_canonical(bio.structure_to_json(structure)))
    return str(path)


def test_envelope_json_and_dot_on_every_subset(tmp_path, capsys, envelope_tree_builds):
    structure = prefix_structure("graph", 6)
    path = _prefix_file(tmp_path, structure)
    built = envelope_tree_builds
    for k in (2, 3):
        emb = build_enveloping(structure, k)
        for subset in itertools.combinations(range(6), k):
            argv = ("envelope", "--prefix", path, "--k", str(k),
                    "--subset", ",".join(map(str, subset)))
            env = compute_envelope(emb, subset)
            want_json = bio.dumps_canonical(envelope_report(env, emb))
            want_dot = brute_tree_to_dot(env.tree, "envelope")
            built.clear()
            assert run(capsys, *argv) == (0, want_json, "")
            assert built == []
            assert run(capsys, *argv, "--dot") == (0, want_dot, "")
            assert len(built) == 1


def test_envelope_dot_above_the_cap_prints_the_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(envelopes, "MATERIALIZE_CAP", 13)
    structure = prefix_structure("graph", 6)
    path = _prefix_file(tmp_path, structure)
    emb = build_enveloping(structure, 3)
    over = 0
    for subset in itertools.combinations(range(6), 3):
        env = compute_envelope(emb, subset)
        if env.tree is not None:
            continue
        over += 1
        want = bio.dumps_canonical(envelope_report(env, emb))
        assert '"tree_nodes":null' in want
        assert run(capsys, "envelope", "--prefix", path, "--k", "3", "--dot",
                   "--subset", ",".join(map(str, subset))) == (0, want, "")
    assert over > 0


def test_cap_flag_and_env(files, capsys, monkeypatch):
    code, _, _ = run(capsys, "degree", "--a", files["edge"], "--height", "3",
                     "--cap", "5")
    assert code == 2
    monkeypatch.setenv("BRT_CAP", "5")
    code, _, _ = run(capsys, "degree", "--a", files["edge"], "--height", "3")
    assert code == 2
    # --cap beats BRT_CAP either way
    assert run(capsys, "degree", "--a", files["edge"], "--height", "3", "--cap", "1000") == (
        0, '{"count":13,"height":3}\n', "")
    monkeypatch.setenv("BRT_CAP", "1000")
    assert run(capsys, "degree", "--a", files["edge"], "--height", "3", "--cap", "5") == (
        2, "", '{"cap":5,"error":"infeasible","estimate":13,"what":"tree prefix of height 3"}\n')
    monkeypatch.delenv("BRT_CAP")
    code, _, _ = run(capsys, "degree", "--a", files["edge"], "--height", "3")
    assert code == 0


def test_bad_cap_env_exits_one_without_traceback(files, capsys, monkeypatch):
    monkeypatch.setenv("BRT_CAP", "abc")
    code, out, err = run(capsys, "degree", "--a", files["edge"], "--height", "3")
    assert (code, out) == (1, "")
    assert err == "brt: error: BRT_CAP must be an integer, got 'abc'\n"
    # a command without --cap reads no cap
    assert run(capsys, "sig", "--lang", files["graph_lang"]) == (0, '{"prefix":[3],"tail":1}\n', "")


def _one_line_error(code, out, err, message):
    assert (code, out, err) == (1, "", f"brt: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("--cap", "5", "tree", "--sigma", "3", "--level", "1"),
    ("--dot", "val", "--sigma", "3", "--height", "2", "--full"),
    ("--seed", "3", "val", "--sigma", "3", "--height", "2"),
    ("--output", "table", "tree", "--sigma", "3", "--level", "1"),
])
def test_an_option_before_the_subcommand_exits_one_with_usage(capsys, argv):
    """``--cap``, ``--seed``, ``--output`` and ``--dot`` follow the subcommand;
    the top-level parser has none of them."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: brt ")
    errors = [line for line in err.splitlines() if line.startswith("brt: error:")]
    assert len(errors) == 1 and err.endswith(errors[0] + "\n")


# Each leaf command and the options it declares; the option each reads, and
# no other.  ``--output`` takes json and table; ``--dot`` alone selects DOT.
LEAF_OPTIONS = {
    ("sig",): ["--lang"],
    ("tree",): ["--cap", "--output", "--sigma", "--shift", "--level", "--count-only"],
    ("val",): ["--cap", "--seed", "--dot", "--sigma", "--height", "--levels", "--full",
               "--witness"],
    ("embed",): ["--output", "--a", "--b"],
    ("envelope",): ["--dot", "--prefix", "--k", "--subset"],
    ("degree",): ["--cap", "--output", "--a", "--height", "--sigma"],
    ("reduce", "encode"): ["--in"],
    ("reduce", "decode"): ["--in", "--language"],
    ("reduce", "unaries"): ["--cap", "--in", "--count", "--countable"],
    ("reduce", "strip"): ["--in", "--forbidden"],
    ("adversarial", "hl"): ["--node"],
    ("adversarial", "hl-witness"): ["--seed", "--colour", "--height"],
    ("adversarial", "inf"): ["--cap", "--prefix-size", "--colours"],
    ("adversarial", "tree-like"): ["--cap", "--bound", "--identity", "--radial", "--map"],
}
TABLE_LEAVES = [("tree",), ("embed",), ("degree",)]


def _leaf_parsers(parser=cli.PARSER, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_each_leaf_declares_the_options_it_reads():
    got, formats = {}, {}
    for path, parser in _leaf_parsers():
        options = [a for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        got[path] = [a.option_strings[0] for a in options]
        formats.update((path, a.choices) for a in options if a.dest == "output")
    assert got == LEAF_OPTIONS
    assert sum(map(len, got.values())) == 48
    assert formats == {path: ["json", "table"] for path in TABLE_LEAVES}


@pytest.mark.parametrize("leaf", LEAF_OPTIONS, ids=" ".join)
def test_help_on_each_leaf_exits_zero(capsys, leaf):
    code, out, err = run(capsys, *leaf, "-h")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: brt {' '.join(leaf)} [-h]")


@pytest.mark.parametrize("argv,error", [
    (("sig", "--lang", "GRAPH_LANG", "--cap", "5"), "brt: error: unrecognized arguments: --cap 5"),
    (("sig", "--lang", "GRAPH_LANG", "--output", "json"),
     "brt: error: unrecognized arguments: --output json"),
    (("tree", "--sigma", "2,3", "--level", "2", "--dot"),
     "brt: error: unrecognized arguments: --dot"),
    (("tree", "--sigma", "3", "--level", "1", "--seed", "3"),
     "brt: error: unrecognized arguments: --seed 3"),
    (("val", "--sigma", "3", "--height", "2", "--output", "table"),
     "brt: error: unrecognized arguments: --output table"),
    (("embed", "--a", "EDGE", "--b", "EDGE", "--cap", "5"),
     "brt: error: unrecognized arguments: --cap 5"),
    (("embed", "--a", "EDGE", "--b", "EDGE", "--seed", "1"),
     "brt: error: unrecognized arguments: --seed 1"),
    (("embed", "--a", "EDGE", "--b", "EDGE", "--output", "dot"),
     "brt embed: error: argument --output: invalid choice: 'dot'"),
    (("envelope", "--k", "2", "--subset", "0,1", "--prefix", "PATH3", "--output", "table"),
     "brt: error: unrecognized arguments: --output table"),
    (("envelope", "--k", "2", "--subset", "0,1", "--prefix", "PATH3", "--cap", "5"),
     "brt: error: unrecognized arguments: --cap 5"),
    (("degree", "--a", "EDGE", "--height", "3", "--dot"),
     "brt: error: unrecognized arguments: --dot"),
    (("reduce", "encode", "--in", "PATH3", "--count", "2"),
     "brt: error: unrecognized arguments: --count 2"),
    (("reduce", "decode", "--in", "PATH3", "--language", "GRAPH_LANG", "--cap", "5"),
     "brt: error: unrecognized arguments: --cap 5"),
    (("reduce", "unaries", "--in", "PATH3", "--count", "2", "--forbidden", "PATH3"),
     "brt: error: unrecognized arguments: --forbidden"),
    (("reduce", "strip", "--in", "PATH3", "--forbidden", "PATH3", "--output", "json"),
     "brt: error: unrecognized arguments: --output json"),
    (("adversarial", "hl", "--node", "3", "--bound", "9"),
     "brt: error: unrecognized arguments: --bound 9"),
    (("adversarial", "hl-witness", "--colour", "2", "--cap", "5"),
     "brt: error: unrecognized arguments: --cap 5"),
    (("adversarial", "inf", "--colours", "2", "--seed", "1"),
     "brt: error: unrecognized arguments: --seed 1"),
    (("adversarial", "inf", "--colour", "2"), "brt: error: unrecognized arguments: --colour 2"),
    (("adversarial", "tree-like", "--identity", "4", "--colour", "1"),
     "brt: error: unrecognized arguments: --colour 1"),
    (("val", "--sigma", "3", "--height", "0", "--dim", "1"),
     "brt val: error: unrecognized arguments: --dim 1"),
    (("val", "--sigma", "3", "--height", "2", "--dim", "0"),
     "brt val: error: unrecognized arguments: --dim 0"),
    (("tree", "--sigma", "3", "--level", "3", "--count-only", "--cap", "1", "--output", "table"),
     "brt: error: --count-only does not read --cap"),
    (("tree", "--sigma", "3", "--level", "3", "--count-only", "--output", "table"),
     "brt: error: --count-only does not read --output"),
    (("val", "--sigma", "3", "--height", "3", "--full", "--seed", "9", "--levels", "0,5,9"),
     "brt: error: --full does not read --seed"),
    (("val", "--sigma", "3", "--height", "3", "--full", "--seed", "0"),
     "brt: error: --full does not read --seed"),
    (("val", "--sigma", "3", "--height", "3", "--full", "--levels", "0,5,9"),
     "brt: error: --full does not read --levels"),
    (("val", "--witness", "EDGE", "--sigma", "3"), "brt: error: --witness does not read --sigma"),
    (("val", "--witness", "EDGE", "--height", "3"),
     "brt: error: --witness does not read --height"),
    (("val", "--witness", "EDGE", "--seed", "4"), "brt: error: --witness does not read --seed"),
    (("val", "--witness", "EDGE", "--full"), "brt: error: --witness does not read --full"),
    (("val", "--witness", "EDGE", "--levels", "0,1"),
     "brt: error: --witness does not read --levels"),
    (("val", "--sigma", "3", "--height", "2", "--output", "dot"),
     "brt: error: unrecognized arguments: --output dot"),
    (("val", "--sigma", "3", "--height", "2", "--dot", "--output", "json"),
     "brt: error: unrecognized arguments: --output json"),
    (("envelope", "--k", "2", "--subset", "0,1", "--prefix", "PATH3", "--output", "dot"),
     "brt: error: unrecognized arguments: --output dot"),
    (("val", "--witness", "", "--sigma", "3", "--height", "2"),
     "brt: error: --witness does not read --sigma"),
    (("adversarial", "tree-like", "--identity", "4", "--radial", "3"),
     "brt: error: --identity does not read --radial"),
    (("adversarial", "tree-like", "--identity", "0", "--radial", "0"),
     "brt: error: --identity does not read --radial"),
    (("adversarial", "tree-like", "--identity", "2", "--map", "EDGE"),
     "brt: error: --identity does not read --map"),
    (("adversarial", "tree-like", "--radial", "2", "--map", "EDGE"),
     "brt: error: --radial does not read --map"),
])
def test_an_option_the_command_does_not_read_exits_one_with_usage(files, capsys, argv, error):
    """Each used to exit 0, the option ignored; ``--output`` is declared only
    where a table can be printed, ``--dot`` is the one DOT switch, and no
    option name is read as a prefix of another (``inf --colour`` is not
    ``--colours``).  ``val --dim`` is gone: the tree always spans
    ``--height`` coordinates.  A mode is chosen when its option is set away
    from its default, so ``--witness ""`` and ``--identity 0`` count, and
    ``tree-like`` takes one source.

    The leaf's own parser reports each error, under its own name in the
    usage and error lines; the rows that spell the program ``brt:`` keep the
    top-level parser's wording, which their test ids carry."""
    names = {"GRAPH_LANG": files["graph_lang"], "EDGE": files["edge"], "PATH3": files["path3"]}
    code, out, err = run(capsys, *(names.get(a, a) for a in argv))
    assert (code, out) == (1, "")
    prog = "brt " + " ".join(argv[:2] if argv[0] in ("reduce", "adversarial") else argv[:1])
    lines = err.splitlines()
    assert err.startswith(f"usage: {prog} [-h]")
    assert lines[-1].startswith(error.replace("brt:", f"{prog}:", 1))
    assert [line for line in lines if ": error: " in line] == lines[-1:]


def test_a_mode_takes_the_defaults_of_the_options_it_does_not_read(capsys):
    """``--output json`` is the default a ``--count-only`` count is printed in,
    and a seeded tree without ``--seed`` reads seed 0."""
    assert run(capsys, "tree", "--sigma", "3", "--level", "3", "--count-only",
               "--output", "json") == (0, '{"count":27}\n', "")
    argv = ("val", "--sigma", "3", "--height", "3")
    assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0")


def test_readme_cli_examples_parse():
    """Every ``brt`` line of README's CLI example block parses, and together
    they show each leaf command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("brt ")]
    for argv in examples:
        try:
            cli.PARSER.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: brt {' '.join(argv)}")
    shown = {tuple(argv[:2]) if argv[0] in ("reduce", "adversarial") else tuple(argv[:1])
             for argv in examples}
    assert shown == set(LEAF_OPTIONS)


def test_zero_cap_exits_one(files, capsys, monkeypatch):
    argv = ("degree", "--a", files["edge"], "--height", "3")
    _one_line_error(*run(capsys, *argv, "--cap", "0"), "caps must be positive")
    monkeypatch.setenv("BRT_CAP", "0")
    _one_line_error(*run(capsys, *argv), "caps must be positive")


@pytest.mark.parametrize("sigma,out", [
    ((), '{"count":13,"height":3}\n'),
    (("--sigma", "3"), '{"count":13,"height":3}\n'),
    (("--sigma", "5"), '{"count":31,"height":3}\n'),
])
def test_degree_reads_sigma_else_the_language(files, capsys, sigma, out):
    """Without ``--sigma`` the signature is the one the structure's language
    is built from, here ``3``."""
    assert run(capsys, "degree", "--a", files["edge"], "--height", "3", *sigma) == (0, out, "")


def test_null_size_exits_one_without_traceback(files, tmp_path, capsys):
    obj = json.loads(Path(files["edge"]).read_text())
    obj["size"] = None
    p = tmp_path / "null_size.json"
    p.write_text(json.dumps(obj))
    _one_line_error(*run(capsys, "embed", "--a", str(p), "--b", str(p)),
                    "size must be an integer, got null")


def test_list_top_level_exits_one_without_traceback(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    _one_line_error(*run(capsys, "embed", "--a", str(p), "--b", str(p)),
                    "a structure must be an object, got [1, 2]")


def test_negative_level_exits_one(capsys):
    _one_line_error(*run(capsys, "tree", "--sigma", "3", "--level", "-1"),
                    "level must be a natural number, got -1")


def test_negative_height_exits_one(files, capsys):
    _one_line_error(*run(capsys, "degree", "--a", files["edge"], "--height", "-2"),
                    "height must be a natural number, got -2")


@pytest.mark.parametrize("argv,error", [
    (("val", "--sigma", "3", "--height", "-1"), "height must be a natural number, got -1"),
    (("val", "--sigma", "3", "--height", "-2", "--full"),
     "height must be a natural number, got -2"),
    (("reduce", "unaries", "--in", "PATH3", "--count", "-1"),
     "--count must be a natural number, got -1"),
])
def test_a_negative_count_exits_one(files, capsys, argv, error):
    _one_line_error(*run(capsys, *(files["path3"] if a == "PATH3" else a for a in argv)), error)


def test_negative_shift_exits_one(capsys):
    _one_line_error(*run(capsys, "tree", "--sigma", "3", "--shift", "-1", "--level", "1"),
                    "shift must be a natural number, got -1")


def test_list_map_exits_one_without_traceback(tmp_path, capsys):
    p = tmp_path / "map.json"
    p.write_text("[[1, 2]]")
    _one_line_error(*run(capsys, "adversarial", "tree-like", "--map", str(p)),
                    "a map must be an object, got [[1, 2]]")


def _witness_blob():
    return bio.witness_to_json(full_tree_witness(Signature((1, 2)), 3, 3))


def _structure_blob():
    return bio.structure_to_json(make_structure(graph_language(), 3, {"e": [(0, 1), (1, 2)]},
                                                hypergraph=True))


@pytest.mark.parametrize("argv,blob,edit,message", [
    (("sig", "--lang", "{}"), lambda: bio.language_to_json(graph_language()),
     lambda o: o.pop("symbols"), 'a language has no "symbols"'),
    (("sig", "--lang", "{}"), lambda: bio.language_to_json(graph_language()),
     lambda o: o["symbols"][0].pop("arity"), 'a symbol has no "arity"'),
    (("embed", "--a", "{}", "--b", "{}"), _structure_blob,
     lambda o: o.pop("size"), 'a structure has no "size"'),
    (("adversarial", "tree-like", "--map", "{}"),
     lambda: {"prefix": _structure_blob(), "pairs": [[0, 1]]},
     lambda o: o.pop("prefix"), 'a map has no "prefix"'),
    (("val", "--witness", "{}"), _witness_blob,
     lambda o: o.pop("coords"), 'a witness has no "coords"'),
    (("val", "--witness", "{}"), _witness_blob,
     lambda o: o["coords"][0].pop("root"), 'a coordinate has no "root"'),
    (("val", "--witness", "{}"), _witness_blob,
     lambda o: o["coords"][0]["selections"][0].pop("child"), 'a selection has no "child"'),
    (("val", "--witness", "{}"), _witness_blob,
     lambda o: o["coords"][0]["root"].pop("level"), 'a node has no "level"'),
    (("val", "--witness", "{}"), _witness_blob,
     lambda o: o["coords"][0]["selections"][2]["child"]["values"][0].pop("v"),
     'an entry has no "v"'),
], ids=["language", "symbol", "structure", "map", "witness", "coordinate", "selection", "node",
        "entry"])
def test_a_missing_key_exits_one_naming_it(tmp_path, capsys, argv, blob, edit, message):
    """A required key an input object lacks is named with the object's kind,
    not printed bare as the ``KeyError`` did."""
    obj = blob()
    edit(obj)
    p = tmp_path / "input.json"
    p.write_text(json.dumps(obj))
    _one_line_error(*run(capsys, *(str(p) if a == "{}" else a for a in argv)), message)


@pytest.mark.parametrize("symbol", ["enc(e:05)", "enc(e)", "enc(e:0)", "enc(e:ab)"])
def test_decode_of_a_malformed_encoded_symbol_exits_one(files, tmp_path, capsys, symbol):
    """A part that is not ``name:perm``, with ``perm`` a permutation of the
    arity, used to raise a traceback or print the unpacking error."""
    lang = make_language((symbol, 2))
    p = tmp_path / "encoded.json"
    p.write_text(bio.dumps_canonical(bio.structure_to_json(
        make_structure(lang, 2, {symbol: [(0, 1)]}, hypergraph=True))))
    part = symbol[4:-1]
    _one_line_error(*run(capsys, "reduce", "decode", "--in", str(p),
                         "--language", files["graph_lang"]),
                    f"encoded symbol {symbol} has part {part}, not a name and "
                    "a permutation of 0..1")


def _with_relation(obj, name):
    obj["relations"] = {name: [[0, 1]]}
    return obj


@pytest.mark.parametrize("command,symbol", [("embed", "f"), ("strip", "g"), ("decode", "g")])
def test_a_symbol_missing_from_its_language_exits_one_naming_it(files, tmp_path, capsys,
                                                                command, symbol):
    """Each used to print the bare key, ``brt: error: 'f'``."""
    p = tmp_path / "input.json"
    if command == "embed":
        p.write_text(json.dumps(_with_relation(_structure_blob(), symbol)))
        argv = ("embed", "--a", str(p), "--b", str(p))
    elif command == "strip":
        p.write_text(json.dumps([_with_relation(_structure_blob(), symbol)]))
        argv = ("reduce", "strip", "--in", files["path3"], "--forbidden", str(p))
    else:
        encoded = make_structure(make_language(("enc(g:01)", 2)), 2, {"enc(g:01)": [(0, 1)]},
                                 hypergraph=True)
        p.write_text(bio.dumps_canonical(bio.structure_to_json(encoded)))
        argv = ("reduce", "decode", "--in", str(p), "--language", files["graph_lang"])
    _one_line_error(*run(capsys, *argv), f"the language has no symbol {symbol}")


@pytest.mark.parametrize("coord,index,levels", [(0, 0, (0, 1)), (1, 1, (0, 1))])
def test_a_witness_missing_a_selection_exits_one(tmp_path, capsys, coord, index, levels):
    """A selection the tree needs used to exit with the ``repr`` of its key."""
    blob = _witness_blob()
    blob["coords"][coord]["selections"].pop(index)
    p = tmp_path / "w.json"
    p.write_text(json.dumps(blob))
    _one_line_error(*run(capsys, "val", "--witness", str(p)),
                    f"coordinate {coord} has no selection for the parent at level "
                    f"{levels[0]} and the direction at level {levels[1]}")


@pytest.mark.parametrize("pairs,message", [
    ([[1, 999]], "map pair [1, 999] has a vertex outside the prefix (size 4)"),
    ([[-1, 0]], "map pair [-1, 0] has a vertex outside the prefix (size 4)"),
    ([[0, 1], [4, 2]], "map pair [4, 2] has a vertex outside the prefix (size 4)"),
    ([[1, 2, 3]], "a map pair must be 2 integers, got [1, 2, 3]"),
    ([[1]], "a map pair must be 2 integers, got [1]"),
])
def test_map_pairs_outside_the_prefix_exit_one(tmp_path, capsys, pairs, message):
    prefix = make_structure(graph_language(), 4, {"e": [(0, 1), (2, 3)]}, hypergraph=True)
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"prefix": bio.structure_to_json(prefix), "pairs": pairs}))
    _one_line_error(*run(capsys, "adversarial", "tree-like", "--map", str(p)), message)
    p.write_text(json.dumps({"prefix": bio.structure_to_json(prefix), "pairs": [[0, 3]]}))
    code, out, _ = run(capsys, "adversarial", "tree-like", "--map", str(p))
    assert code == 0 and json.loads(out)["checked"] == 1


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_internal_error_exits_three_without_traceback(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc("structural embedding candidate not unique")

    monkeypatch.setattr(cli, "level_nodes", broken)
    code, out, err = run(capsys, "tree", "--sigma", "3", "--level", "2")
    assert (code, out) == (3, "")
    assert err == "brt: internal error: structural embedding candidate not unique\n"


class _FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", [("tree", "--sigma", "3", "--level", "6"),
                                  ("adversarial", "hl", "--node", "3")])
def test_a_failed_write_is_one_error_line(capsys, monkeypatch, argv):
    """Writing the output is inside main's error handling: a full disk or a
    closed pipe used to print a traceback."""
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(list(argv))
    err = capsys.readouterr().err
    assert (code, err) == (1, "brt: error: [Errno 28] No space left on device\n")


def test_inf_prefix_growth_stops_at_the_cap(capsys):
    """A witness growth past the cap reports the size it would reach; a
    ``--prefix-size`` past the cap is refused before any vertex is built,
    with the requested size as the estimate."""
    code, out, err = run(capsys, "adversarial", "inf", "--cap", "9")
    assert (code, out) == (2, "")
    assert err == ('{"cap":9,"error":"infeasible","estimate":10,'
                   '"what":"adversarial inf prefix"}\n')
    for size in (40, 10 ** 12):
        start = time.perf_counter()
        code, out, err = run(capsys, "adversarial", "inf", "--prefix-size", str(size),
                             "--cap", "20")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err) == {"cap": 20, "error": "infeasible", "estimate": size,
                                   "what": "adversarial inf prefix"}
    _, default, _ = run(capsys, "adversarial", "inf")
    assert run(capsys, "adversarial", "inf", "--cap", "10") == (0, default, "")
    assert json.loads(default)["prefix_size"] == 10


@pytest.mark.parametrize("argv,estimate", [
    (("--identity", "4000"), 4000),
    (("--radial", "1000"), 2001),
    (("--radial", "1000000"), 2000001),
])
def test_tree_like_prefix_growth_stops_at_the_cap(capsys, argv, estimate):
    """The prefix size is checked before any vertex is built: ``--identity N``
    builds N vertices, ``--radial M`` builds 2M+1."""
    start = time.perf_counter()
    code, out, err = run(capsys, "adversarial", "tree-like", *argv, "--cap", "10")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f'{{"cap":10,"error":"infeasible","estimate":{estimate},'
                   '"what":"adversarial tree-like prefix"}\n')


@pytest.mark.parametrize("argv,budget", [
    (("inf", "--prefix-size", "80000"), 6.0),
    (("tree-like", "--radial", "20000", "--bound", "1"), 3.0),
])
def test_prefix_growth_is_linear(capsys, argv, budget):
    """A prefix grows in one call, in time linear in its size: about 1.3 s
    for 80,000 ``inf`` vertices and 0.45 s for the 40,001 of ``--radial
    20000`` on a 2-vCPU VM, against 20.5 s and more than 30 s when each
    vertex copied the whole prefix.  The budgets leave room for slower
    runners."""
    start = time.perf_counter()
    code, _, err = run(capsys, "adversarial", *argv)
    assert time.perf_counter() - start < budget
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv,cap", [(("--identity", "10"), 10), (("--radial", "4"), 9)])
def test_tree_like_prefix_at_the_cap_runs(capsys, argv, cap):
    _, default, _ = run(capsys, "adversarial", "tree-like", *argv, "--bound", "6")
    assert run(capsys, "adversarial", "tree-like", *argv, "--bound", "6",
               "--cap", str(cap)) == (0, default, "")
    code, out, _ = run(capsys, "adversarial", "tree-like", *argv, "--bound", "6",
                       "--cap", str(cap - 1))
    assert (code, out) == (2, "")


@pytest.mark.parametrize("mode", [(), ("--full",), ("--levels", "0,1")],
                         ids=["seeded", "full", "levels"])
def test_val_refuses_a_tree_past_the_cap_before_building_its_witness(capsys, mode):
    """A million coordinates used to be built first, for 9 s; a negative
    height is still an input error, checked before the size.  A level list
    is checked by the witness, after the size."""
    start = time.perf_counter()
    code, out, err = run(capsys, "val", "--sigma", "3:5", "--height", "1000000", *mode,
                         "--cap", "10")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == bio.dumps_canonical({"cap": 10, "error": "infeasible",
                                       "estimate": ESTIMATE_MAX,
                                       "what": "valuation tree construction"})
    assert run(capsys, "val", "--sigma", "3", "--height", "-1", *mode, "--cap", "1") == (
        1, "", "brt: error: height must be a natural number, got -1\n")


@pytest.mark.parametrize("argv,message", [
    (("--sigma", "3", "--height", "3", "--levels=-1,0,1"),
     "a witness level must be a natural number, got -1"),
    (("--witness", "NEGATIVE"), "a witness level must be a natural number, got -1"),
    (("--sigma", "3", "--height", "2", "--levels", "5,9,20"),
     "--levels has 3 levels, more than --height 2"),
    (("--witness", ""), "[Errno 2] No such file or directory: ''"),
])
def test_val_refuses_levels_no_witness_can_have(tmp_path, capsys, argv, message):
    """A negative level used to print a root at level -1, a longer level list
    lost its tail, and ``--witness ""`` read as no witness."""
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"sigma": {"prefix": [3]}, "levels": [-1, 0],
                             "coords": [{"root": {"level": -1, "values": []}}]}))
    _one_line_error(*run(capsys, "val", *(str(p) if a == "NEGATIVE" else a for a in argv)),
                    message)


def test_degree_at_height_12_is_quick(files, capsys):
    """GRAPH height 12 holds 265,720 nodes: the count reads level profiles
    and builds none of them."""
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "--a", files["edge"], "--height", "12")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, '{"count":5883904390,"height":12}\n', "")


@pytest.mark.parametrize("argv,message", [
    (("tree-like", "--bound", "3"), "tree-like needs --identity, --radial or --map"),
    (("hl-witness", "--colour", "-1"), "--colour must be a natural number, got -1"),
    (("hl-witness", "--colour", "-5", "--seed", "3"), "--colour must be a natural number, got -5"),
    (("hl", "--node=-3,-2"), "--node entries must be natural numbers, got -3,-2"),
    (("hl", "--node=2,-1"), "--node entries must be natural numbers, got 2,-1"),
    (("hl-witness", "--height", "-2"), "--height must be a natural number, got -2"),
    (("inf", "--colours", "-1"), "--colours must be a natural number, got -1"),
    (("inf", "--prefix-size", "-3"), "--prefix-size must be a natural number, got -3"),
    (("tree-like", "--identity", "-5"), "--identity must be a natural number, got -5"),
    (("tree-like", "--radial", "-1"), "--radial must be a natural number, got -1"),
    (("tree-like", "--identity", "4", "--bound", "-1"), "--bound must be a natural number, got -1"),
])
def test_adversarial_bad_input_exits_one(capsys, argv, message):
    """Each used to raise a traceback (no source), exit 3 (negative colours
    and node entries) or exit 0 (negative sizes)."""
    start = time.perf_counter()
    code, out, err = run(capsys, "adversarial", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"brt: error: {message}\n")


@pytest.mark.parametrize("source", ["--identity", "--radial"])
def test_tree_like_empty_sources_are_inconclusive(capsys, source):
    """``--identity 0`` and ``--radial 0`` are sources, not missing ones."""
    code, out, err = run(capsys, "adversarial", "tree-like", source, "0")
    assert (code, out, err) == (0, '{"checked":0,"status":"inconclusive","witness":null}\n', "")


@pytest.mark.parametrize("argv,code", [
    (("tree", "--sigma", "3", "--level", "2"), 0),
    (("tree", "--sigma", "3", "--level", "-1"), 1),
    (("tree", "--sigma", "3", "--level", "6", "--cap", "10"), 2),
    (("tree", "--sigma", "3", "--level", "1", "--nope"), 1),
    (("--help",), 0),
])
def test_main_restores_gc_state(capsys, gc_before, argv, code):
    assert run(capsys, *argv)[0] == code
    assert gc.isenabled() is gc_before


def test_command_runs_with_gc_paused(capsys, monkeypatch, gc_before):
    seen = []

    def fake(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "level_nodes", fake)
    assert run(capsys, "tree", "--sigma", "3", "--level", "2")[0] == 3
    assert seen == [False]
    assert gc.isenabled() is gc_before


def test_witness_value_out_of_bound_exits_one(tmp_path, capsys):
    blob = bio.witness_to_json(full_tree_witness(Signature((1, 2)), 3, 3))
    blob["coords"][0]["selections"][0]["child"]["values"] = [{"tuple": [0], "v": 1}]
    p = tmp_path / "w.json"
    p.write_text(bio.dumps_canonical(blob))
    _one_line_error(*run(capsys, "val", "--witness", str(p)),
                    "value 1 at (0,) out of bounds")


def test_unknown_flag_exits_one_with_usage(files, capsys):
    code, out, err = run(capsys, "tree", "--sigma", "3", "--level", "1", "--nope")
    assert code == 1 and out == ""
    assert "usage" in err


def test_unknown_subcommand_exits_one(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1 and "usage" in err


def test_missing_file_exits_one(capsys):
    code, out, err = run(capsys, "sig", "--lang", "/nonexistent.json")
    assert code == 1 and "error" in err


def test_tree_count_only(capsys):
    code, out, _ = run(capsys, "tree", "--sigma", "2,3", "--level", "2",
                       "--count-only")
    assert code == 0 and json.loads(out) == {"count": 12}


def test_embed_output(files, capsys):
    code, out, _ = run(capsys, "embed", "--a", files["edge"], "--b", files["edge"])
    assert code == 0
    assert json.loads(out) == {"count": 1, "embeddings": [[0, 1]]}


def test_val_dot_and_table(capsys):
    """A DOT label separates the entries of a tuple with dots."""
    assert run(capsys, "val", "--sigma", "1,2", "--height", "3", "--full", "--dot") == (0, (
        'digraph valtree {\n'
        '  node [shape=box];\n'
        '  n0_0 [label="L0|0"];\n'
        '  n1_0 [label="L1|0"];\n'
        '  n2_0 [label="L2|0"];\n'
        '  n2_1 [label="L2|1.0:1"];\n'
        '  n0_0 -> n1_0;\n'
        '  n1_0 -> n2_0;\n'
        '  n1_0 -> n2_1;\n'
        '}\n'), "")
    code, out, _ = run(capsys, "tree", "--sigma", "3", "--level", "1",
                       "--output", "table")
    assert code == 0 and len(out.splitlines()) == 3


def test_val_of_height_zero_is_the_empty_tree(capsys):
    """``--height 0`` used to read as a missing ``--height``."""
    code, out, err = run(capsys, "val", "--sigma", "3", "--height", "0")
    assert (code, out, err) == (0, '{"height":0,"levels":[],"node_count":0,"nodes":[]}\n', "")


def test_reduce_roundtrip_via_files(tmp_path, capsys):
    from brt.structures import make_language
    lang = make_language(("E", 2))
    a = make_structure(lang, 3, {"E": [(0, 1), (1, 0), (2, 1)]})
    s_path = tmp_path / "a.json"
    s_path.write_text(bio.dumps_canonical(bio.structure_to_json(a)))
    l_path = tmp_path / "lang.json"
    l_path.write_text(bio.dumps_canonical(bio.language_to_json(lang)))

    code, out, _ = run(capsys, "reduce", "encode", "--in", str(s_path))
    assert code == 0
    enc_path = tmp_path / "enc.json"
    enc_path.write_text(out)
    code, out, _ = run(capsys, "reduce", "decode", "--in", str(enc_path),
                       "--language", str(l_path))
    assert code == 0
    assert bio.structure_from_json(json.loads(out)) == a


def test_reduce_unaries(tmp_path, capsys):
    base = make_structure(graph_language(), 3, {"e": [(0, 1)]}, hypergraph=True)
    p = tmp_path / "base.json"
    p.write_text(bio.dumps_canonical(bio.structure_to_json(base)))
    code, out, _ = run(capsys, "reduce", "unaries", "--in", str(p), "--count", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["pairs"] == [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1]]


def test_reduce_strip(tmp_path, capsys):
    from brt.structures import make_language
    ter = make_language(("T", 3))
    m = make_structure(ter, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    bad = make_structure(ter, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    mp = tmp_path / "m.json"
    mp.write_text(bio.dumps_canonical(bio.structure_to_json(m)))
    fp = tmp_path / "family.json"
    fp.write_text(bio.dumps_canonical([bio.structure_to_json(bad)]))
    code, out, _ = run(capsys, "reduce", "strip", "--in", str(mp),
                       "--forbidden", str(fp))
    assert code == 0
    assert json.loads(out)["relations"] == {}


@pytest.mark.parametrize("argv,message", [
    (("decode",), "decode needs --language"),
    (("strip",), "strip needs --forbidden"),
    (("unaries", "--count", "-1"), "--count must be a natural number, got -1"),
    (("unaries", "--count", "-1", "--countable"), "--count must be a natural number, got -1"),
])
def test_reduce_bad_input_exits_one(files, capsys, argv, message):
    """Each used to raise a traceback (no ``--language`` or ``--forbidden``)
    or to exit 0 with an empty product (a negative count)."""
    _one_line_error(*run(capsys, "reduce", *argv, "--in", files["path3"]), message)


@pytest.mark.parametrize("flags", [(), ("--count", "2", "--countable")])
def test_reduce_unaries_needs_exactly_one_of_count_and_countable(files, capsys, flags):
    """Without ``--count`` the product used to be countable whether or not
    ``--countable`` was given, and with both ``--countable`` was dropped."""
    _one_line_error(*run(capsys, "reduce", "unaries", "--in", files["path3"], *flags),
                    "unaries needs exactly one of --count and --countable")


@pytest.mark.parametrize("subset,vertex", [("0,5", 5), ("-1,0", -1)])
def test_envelope_subset_outside_the_prefix_exits_one(files, capsys, subset, vertex):
    """A subset vertex outside the prefix used to exit with its bare
    ``KeyError``, ``brt: error: 5``."""
    _one_line_error(*run(capsys, "envelope", "--k", "2", f"--subset={subset}",
                         "--prefix", files["path3"]),
                    f"subset vertex {vertex} is outside the prefix (size 3)")


def test_reduce_strip_of_an_object_family_exits_one(files, tmp_path, capsys):
    """A forbidden family is a list; an object used to read as no family."""
    p = tmp_path / "family.json"
    p.write_text("{}")
    _one_line_error(*run(capsys, "reduce", "strip", "--in", files["path3"], "--forbidden", str(p)),
                    "a forbidden family must be a list, got {}")


def test_adversarial_inf_and_tree_like(capsys):
    code, out, _ = run(capsys, "adversarial", "inf", "--colours", "2")
    assert code == 0
    rep = json.loads(out)
    assert set(rep["copies"]) == {"0", "1", "2"}
    code, out, _ = run(capsys, "adversarial", "tree-like", "--identity", "4",
                       "--bound", "3")
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, "adversarial", "tree-like", "--radial", "3",
                       "--bound", "8")
    assert code == 0 and json.loads(out)["status"] == "fail"


def test_witness_json_roundtrip():
    w = seeded_witness(Signature((3,)), 2, 2, seed=3)
    blob = bio.witness_to_json(w)
    back = bio.witness_from_json(blob)
    assert back.levels == w.levels
    from brt.trees import build_valuation_tree
    assert build_valuation_tree(back).nodes == build_valuation_tree(w).nodes


def test_val_from_witness_file(tmp_path, capsys):
    w = full_tree_witness(Signature((1, 2)), 3, 3)
    p = tmp_path / "w.json"
    p.write_text(bio.dumps_canonical(bio.witness_to_json(w)))
    code, out, _ = run(capsys, "val", "--witness", str(p))
    assert code == 0 and json.loads(out)["node_count"] == 4


def test_repeat_invocations_byte_identical(files, capsys):
    matrix = [
        ("sig", "--lang", files["graph_lang"]),
        ("tree", "--sigma", "2,3", "--level", "2"),
        ("val", "--sigma", "3", "--height", "3", "--seed", "12"),
        ("envelope", "--k", "2", "--subset", "0,2", "--prefix", files["path3"]),
        ("degree", "--a", files["edge"], "--height", "3"),
        ("adversarial", "hl", "--node", "4,0,1"),
        ("adversarial", "inf", "--colours", "3"),
        ("tree", "--sigma", "3", "--level", "1", "--output", "table"),
        ("val", "--sigma", "1,2", "--height", "3", "--full", "--dot"),
        ("tree", "--sigma", "3", "--level", "1", "--nope"),
    ]
    first = [run(capsys, *argv) for argv in matrix]
    second = [run(capsys, *argv) for argv in matrix]
    assert [code for code, _, _ in first] == [0] * (len(matrix) - 1) + [1]
    assert first == second


def _cli_inputs() -> dict:
    """The input files of the golden matrix and the fuzz test, by name: an
    object is written as canonical JSON, a string as it is."""
    graph, directed, ternary = graph_language(), make_language(("E", 2)), make_language(("T", 3))
    tl = tree_language(Signature((3,)))
    path3 = _structure_blob()
    dir3 = make_structure(directed, 3, {"E": [(0, 1), (1, 0), (2, 1)]})
    ter = bio.structure_to_json(make_structure(ternary, 3, {"T": [(0, 1, 2), (2, 1, 0)]}))
    prefix4 = make_structure(graph, 4, {"e": [(0, 1), (2, 3)]}, hypergraph=True)
    reversed_edge = {**bio.structure_to_json(make_structure(graph, 2, {})),
                     "relations": {"e": [[1, 0]]}}
    inputs = {
        "graph_lang.json": bio.language_to_json(graph),
        "directed_lang.json": bio.language_to_json(directed),
        "path3.json": path3,
        "edge.json": bio.structure_to_json(make_structure(tl, 2, {"r2c1": [(0, 1)]},
                                                          hypergraph=True)),
        "point.json": bio.structure_to_json(make_structure(tl, 1, {}, hypergraph=True)),
        "directed.json": bio.structure_to_json(dir3),
        "encoded.json": bio.structure_to_json(naive_encode_structure(dir3)),
        "ternary.json": ter,
        "family.json": [ter],
        "witness.json": _witness_blob(),
        "seeded_witness.json": bio.witness_to_json(seeded_witness(Signature((3,)), 2, 2, 3)),
        "negative_witness.json": {"sigma": {"prefix": [3]}, "levels": [-1, 0], "coords": []},
        "map.json": {"prefix": bio.structure_to_json(prefix4), "pairs": [[0, 1], [1, 2], [2, 3]]},
        "truncated.json": bio.dumps_canonical(path3)[:40],
        "list.json": "[1, 2]",
        "no_size.json": {k: v for k, v in path3.items() if k != "size"},
        "out_of_range.json": {**path3, "relations": {"e": [[0, 5]]}},
    }
    for name, flag in (("true", True), ("false", False), ("false_string", "false"),
                       ("zero", 0), ("null", None)):
        inputs[f"hypergraph_{name}.json"] = {**reversed_edge, "hypergraph": flag}
    return inputs


def _write_inputs(directory: Path) -> None:
    for name, blob in _cli_inputs().items():
        (directory / name).write_text(blob if isinstance(blob, str) else
                                      bio.dumps_canonical(blob))


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def test_cli_bytes_match_the_golden_digests(tmp_path, capsys, monkeypatch):
    """Each argv of ``cli_golden.json`` prints the exit code, stdout and
    stderr whose SHA-256 the file records.  The argv name their inputs
    relative to the directory they run in, so no temporary path reaches a
    digest, and COLUMNS fixes the width argparse wraps usage lines at.  A
    change that means to alter some bytes updates those entries."""
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("BRT_CAP", raising=False)
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    got = {line: _digest(*run(capsys, *shlex.split(line))) for line in golden}
    assert {line: d for line, d in got.items() if d != golden[line]} == {}


# Boundary values of each kind of option value, for the fuzz test.
_COUNTS = ["0", "-1", "1", "3", "x", ""]
_SIGNATURES = ["3", "2,3", "1:3", "0", "", "1,,2", "0,1,"]
_LISTS = ["0,1", "1,0", "-1", "", "1,,2", "0,1,"]
_LIST_OPTIONS = {"levels", "subset", "node"}
_FUZZ_FILES = ["path3.json", "graph_lang.json", "witness.json", "map.json", "truncated.json",
               "list.json", "no_size.json", "out_of_range.json", ""]


def _fuzz_values(action, directory: Path) -> list[str]:
    if action.choices:
        return [*action.choices, "dot"]
    if action.type is int:
        return _COUNTS
    if action.dest == "sigma":
        return _SIGNATURES
    if action.dest in _LIST_OPTIONS:
        return _LISTS
    return [str(directory / name) if name else "" for name in _FUZZ_FILES]


@st.composite
def _fuzz_argv(draw, directory: Path):
    """A leaf's words, then each required option and a drawn subset of the
    others, every value given as ``--option=value``."""
    path, parser = draw(st.sampled_from(list(_leaf_parsers())))
    argv = list(path)
    for action in parser._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if not action.required and not draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        argv.append(flag if action.nargs == 0 else
                    f"{flag}={draw(st.sampled_from(_fuzz_values(action, directory)))}")
    return argv


def test_main_fails_cleanly_on_fuzzed_argv(tmp_path):
    """Every leaf, fed boundary values and broken files, exits 0, 1 or 2
    without a traceback: silent on success, one ``: error: `` line last on
    stderr for an input error, one canonical JSON line for an infeasible
    one."""
    _write_inputs(tmp_path)

    @given(_fuzz_argv(tmp_path))
    @settings(max_examples=300, deadline=None, database=None)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in out + err, argv
        if code == 0:
            assert err == "", argv
        elif code == 1:
            lines = err.splitlines()
            assert [line for line in lines if ": error: " in line] == lines[-1:], (argv, err)
            assert err.endswith("\n") and out == "", argv
        else:
            assert out == "" and err == bio.dumps_canonical(json.loads(err)), (argv, err)

    check()
