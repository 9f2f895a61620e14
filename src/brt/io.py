"""JSON forms of the shared file formats (schema ``brt-structure/1``)."""

from __future__ import annotations

import json

from .structures import EnumeratedStructure, RelationalLanguage, make_structure
from .trees import ExplicitCoordinate, StrongSubtreeWitness, coordinate_nodes, immediate_successors
from .valuation import Signature, ValuationFunction, make_valuation

SCHEMA = "brt-structure/1"
_NOT_INTS = "{} must be integers separated by commas, got {}"


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string", bool: "a boolean"}


def _typed(x, kind: type, what: str):
    """``x`` if it has the JSON type ``kind``; a one-line ValueError otherwise."""
    if isinstance(x, kind) and not (kind is int and isinstance(x, bool)):
        return x
    raise ValueError(f"{what} must be {_KINDS[kind]}, got {json.dumps(x, default=repr)[:40]}")


def _key(obj, key: str, what: str):
    """``obj[key]`` if ``obj`` is a JSON object that has the key; a one-line
    ValueError naming ``what`` otherwise."""
    if key not in _typed(obj, dict, what):
        raise ValueError(f'{what} has no "{key}"')
    return obj[key]


def _ints(x, what: str) -> tuple[int, ...]:
    if type(x) is list and all(type(v) is int for v in x):
        return tuple(x)
    # Otherwise name the first entry that is not an integer (``true`` too).
    return tuple(_typed(v, int, what) for v in _typed(x, list, what))


def _schema_object(obj, what: str) -> dict:
    if _typed(obj, dict, what).get("schema", SCHEMA) != SCHEMA:
        raise ValueError(f"unsupported schema {obj.get('schema')}")
    return obj


def language_to_json(lang: RelationalLanguage) -> dict:
    out = {"schema": SCHEMA,
           "symbols": [{"name": n, "arity": a} for n, a in lang.symbols]}
    if lang.countable_arities:
        out["countable_arities"] = sorted(lang.countable_arities)
    return out


def language_from_json(obj: dict) -> RelationalLanguage:
    _schema_object(obj, "a language")
    symbols = tuple((_typed(_key(s, "name", "a symbol"), str, "a symbol name"),
                     _typed(_key(s, "arity", "a symbol"), int, "an arity"))
                    for s in _typed(_key(obj, "symbols", "a language"), list, "symbols"))
    return RelationalLanguage(symbols, frozenset(_ints(obj.get("countable_arities", []),
                                                       "countable arities")))


def structure_to_json(s: EnumeratedStructure) -> dict:
    return {"schema": SCHEMA,
            "language": language_to_json(s.language),
            "size": s.size,
            "relations": {name: [list(t) for t in tuples]
                          for name, tuples in s.relations},
            "hypergraph": s.hypergraph}


def structure_from_json(obj: dict) -> EnumeratedStructure:
    lang = language_from_json(_key(_schema_object(obj, "a structure"), "language", "a structure"))
    rels = {name: [_ints(t, "a relation tuple") for t in _typed(tuples, list, "relations")]
            for name, tuples in _typed(obj.get("relations", {}), dict, "relations").items()}
    return make_structure(lang, _typed(_key(obj, "size", "a structure"), int, "size"), rels,
                          hypergraph=_typed(obj.get("hypergraph", False), bool, "hypergraph"))


def signature_to_json(sig: Signature) -> dict:
    return {"prefix": list(sig.prefix), "tail": sig.tail}


def signature_from_json(obj: dict) -> Signature:
    return Signature(_ints(_typed(obj, dict, "a signature").get("prefix", []), "prefix"),
                     _typed(obj.get("tail", 1), int, "tail"))


def parse_ints(text: str, option: str) -> tuple[int, ...]:
    """The integers of a comma-separated option value; blank is the empty
    list, and an empty entry (``1,,2``, ``0,1,``) is no integer."""
    try:
        return tuple(int(p) for p in text.split(",")) if text.strip() else ()
    except ValueError:
        raise ValueError(_NOT_INTS.format(option, text)) from None


def parse_signature(text: str) -> Signature:
    """Parse ``--sigma``: ``"3"``, ``"2,3"`` or ``"2,3:1"`` (prefix entries, colon tail)."""
    prefix, colon, tail = text.partition(":")
    try:
        tail_n = int(tail) if colon else 1
    except ValueError:
        raise ValueError(_NOT_INTS.format("--sigma", text)) from None
    return Signature(parse_ints(prefix, "--sigma"), tail_n)


def valuation_to_json(f: ValuationFunction) -> dict:
    return {"level": f.level,
            "values": [{"tuple": list(t), "v": v} for t, v in f.values]}


class _EntryJSON(dict):
    """One call's memo: a stored ``(tuple, value)`` entry to its canonical JSON."""

    def __missing__(self, entry):
        t, v = entry
        text = self[entry] = '{"tuple":[%s],"v":%d}' % (",".join(map(str, t)), v)
        return text


def nodes_json(nodes) -> list[str]:
    """``valuation_to_json`` of each node in canonical JSON, written directly:
    the keys are already in sorted order and each distinct stored entry is
    rendered once per call.  Nothing is cached on the nodes."""
    entry = _EntryJSON().__getitem__
    return ['{"level":%d,"values":[%s]}' % (f.level, ",".join(map(entry, f.values)))
            for f in nodes]


# A node's stand-in while the object around it is encoded.  The encoder
# escapes the character, so only this one-character string encodes the same;
# the objects written here hold no string values.
_HOLE = "\x00"
_HOLE_JSON = json.dumps(_HOLE)


def dumps_with_nodes(obj) -> str:
    """``dumps_canonical`` of an object that holds valuation nodes, each
    written by one ``nodes_json`` call for all of them.  The object around
    the nodes is encoded with sorted keys and a hole per node; the output is
    one join of the text between the holes and the node strings."""
    nodes: list[ValuationFunction] = []

    def hole(f: ValuationFunction) -> str:
        nodes.append(f)
        return _HOLE

    between = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                               default=hole).encode(obj).split(_HOLE_JSON)
    pieces = [""] * (2 * len(between))
    pieces[::2] = between
    pieces[1:-1:2] = nodes_json(nodes)
    pieces[-1] = "\n"
    return "".join(pieces)


def valuation_from_json(obj: dict, sig: Signature, shift: int) -> ValuationFunction:
    vals = {_ints(_key(e, "tuple", "an entry"), "a tuple"):
            _typed(_key(e, "v", "an entry"), int, "a value")
            for e in _typed(_typed(obj, dict, "a node").get("values", []), list, "values")}
    return make_valuation(sig, shift, _typed(_key(obj, "level", "a node"), int, "level"), vals)


def map_from_json(obj) -> tuple[EnumeratedStructure, dict[int, int]]:
    """A tree-likeness map file: the prefix structure and its vertex pairs,
    each a vertex of the prefix and its image, also a vertex of the prefix."""
    pairs = _typed(_key(obj, "pairs", "a map"), list, "pairs")
    structure = structure_from_json(_key(obj, "prefix", "a map"))
    fmap = {}
    for p in pairs:
        pair = _ints(p, "a map pair")
        if len(pair) != 2:
            raise ValueError(f"a map pair must be 2 integers, got {list(pair)}")
        if not all(0 <= v < structure.size for v in pair):
            raise ValueError(f"map pair {list(pair)} has a vertex outside the prefix "
                             f"(size {structure.size})")
        fmap[pair[0]] = pair[1]
    return structure, fmap


def witness_to_json(witness: StrongSubtreeWitness, cap: int = 10_000) -> dict:
    """Materialise a witness into the explicit selection schema."""
    coords = []
    for ci, coord in enumerate(witness.coords):
        tiers = coordinate_nodes(coord, witness.levels, cap)
        sels = []
        for j in range(len(witness.levels) - 1):
            for s in tiers[j]:
                for t in immediate_successors(s, cap):
                    child = witness.select(ci, s, t)
                    sels.append({"parent": valuation_to_json(s),
                                 "direction": valuation_to_json(t),
                                 "child": valuation_to_json(child)})
        coords.append({"root": valuation_to_json(coord.root), "selections": sels})
    return {"schema": SCHEMA,
            "sigma": signature_to_json(witness.sig),
            "levels": list(witness.levels),
            "coords": coords}


def witness_from_json(obj: dict) -> StrongSubtreeWitness:
    sig = signature_from_json(_key(obj, "sigma", "a witness"))
    levels = _ints(_key(obj, "levels", "a witness"), "levels")
    coords = []
    for ci, cobj in enumerate(_typed(_key(obj, "coords", "a witness"), list, "coords")):
        root = valuation_from_json(_key(cobj, "root", "a coordinate"), sig, ci)
        sels = {}
        for e in _typed(cobj.get("selections", []), list, "selections"):
            parent = valuation_from_json(_key(e, "parent", "a selection"), sig, ci)
            direction = valuation_from_json(_key(e, "direction", "a selection"), sig, ci)
            sels[(parent, direction)] = valuation_from_json(_key(e, "child", "a selection"),
                                                            sig, ci)
        coords.append(ExplicitCoordinate(root, sels))
    return StrongSubtreeWitness(sig, levels, tuple(coords))
