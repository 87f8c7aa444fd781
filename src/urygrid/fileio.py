"""JSON readers and writers for the on-disk formats.

Every reader validates through the library constructors, so malformed files
fail with the same errors as malformed values. Writers emit canonical JSON
(sorted keys, fixed separators, trailing newline) so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json
import os

from .errors import ValidationError
from .grid import is_grid_int
from .spaces import FiniteMetricSpace, PartialSpec

# Each reader of another format imports the class it builds when it runs,
# so loading a space file never pays for the modules behind the others.
# Annotations stay unevaluated strings naming those classes.


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: not valid JSON ({e})") from None


def _strings(v) -> bool:
    return all(isinstance(x, str) for x in v)


# list-valued fields every reader iterates, with what each item must be
_LIST_FIELDS = {
    "points": ("a list of strings", _strings),
    "support": ("a list of strings", _strings),
    "dist": ("a list of lists", lambda v: all(isinstance(r, list) for r in v)),
    "entries": ("a list of lists", lambda v: all(isinstance(r, list) for r in v)),
    "pairs": ("a list of pairs of names or indices",
              lambda v: all(isinstance(p, list) and len(p) == 2
                            and all(isinstance(x, (str, int)) for x in p) for p in v)),
    "values": ("a list", lambda v: True),
    "weights": ("a list", lambda v: True),
    "relations": ("a list", lambda v: True),
}

SPACE_KEYS = ("points", "denominator", "dist")


def require_object(obj, kind: str, keys=()) -> dict:
    """``obj`` if it is a JSON object holding every key in ``keys`` whose
    list fields have the shapes the readers rely on (``"points"`` a list
    of strings, matrices lists of rows, ...) and whose ``"pseudo"``, if
    present, is JSON true or false; a ValidationError naming ``kind``
    otherwise."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{kind} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"{kind} object lacks {key!r}")
    if not isinstance(obj.get("pseudo", False), bool):
        raise ValidationError(f"{kind} field 'pseudo' must be true or false")
    for key, value in obj.items():
        if key in _LIST_FIELDS:
            what, items_ok = _LIST_FIELDS[key]
            if not isinstance(value, list) or not items_ok(value):
                raise ValidationError(f"{kind} field {key!r} must be {what}")
    return obj


def _resolve(obj, base_dir: str):
    """A reference is either an inline object or a path string relative to
    the referring file."""
    if isinstance(obj, str):
        return load_json(os.path.join(base_dir, obj))
    return obj


def space_from_obj(obj) -> FiniteMetricSpace:
    require_object(obj, "space", SPACE_KEYS)
    return FiniteMetricSpace(tuple(obj["points"]), obj["denominator"],
                             tuple(tuple(r) for r in obj["dist"]),
                             obj.get("pseudo", False))


def space_to_obj(space: FiniteMetricSpace) -> dict:
    out = {"points": list(space.points), "denominator": space.denominator,
           "dist": [list(r) for r in space.dist]}
    if space.pseudo:
        out["pseudo"] = True
    return out


def load_space(path: str) -> FiniteMetricSpace:
    return space_from_obj(load_json(path))


def load_space_ref(obj, base_dir: str) -> FiniteMetricSpace:
    return space_from_obj(_resolve(obj, base_dir))


def load_partial(path: str) -> PartialSpec:
    obj = require_object(load_json(path), "partial space", ("points", "denominator", "entries"))
    return PartialSpec(tuple(obj["points"]), obj["denominator"],
                       tuple(tuple(r) for r in obj["entries"]))


def load_katetov(path: str) -> KatetovFunction:
    from .katetov import KatetovFunction

    obj = require_object(load_json(path), "katetov function", ("space", "support", "values"))
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    return KatetovFunction(space, tuple(obj["support"]), tuple(obj["values"]))


def load_matrix(path: str) -> BiKatetovMatrix:
    from .bikatetov import BiKatetovMatrix

    obj = require_object(load_json(path), "matrix", ("space", "entries"))
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    return BiKatetovMatrix(space, tuple(tuple(r) for r in obj["entries"]))


def matrix_to_obj(m: BiKatetovMatrix) -> dict:
    return {"space": space_to_obj(m.space), "entries": [list(r) for r in m.entries]}


def load_alphabet_word(path: str):
    """Word file: {"alphabet": <space ref>, "weights": [...], "word": "..."}
    or the two-word variant with "u" and "v" instead of "word"."""
    from .graev import WeightedAlphabet, parse_word

    obj = require_object(load_json(path), "word", ("alphabet", "weights"))
    space = load_space_ref(obj["alphabet"], os.path.dirname(path) or ".")
    alphabet = WeightedAlphabet.from_space(space, tuple(obj["weights"]))
    words: dict[str, Word] = {}
    for key in ("word", "u", "v"):
        if key in obj:
            if not isinstance(obj[key], str):
                raise ValidationError(f"word field {key!r} must be a string")
            words[key] = parse_word(alphabet, obj[key])
    if not words:
        raise ValidationError("word object needs a 'word' (or 'u' and 'v') field")
    return alphabet, words


def load_relations(path: str):
    """Relation stock file: {"space": <ref>, "relations": [{"name": ...,
    "pairs": [[a, b], ...]}, ...]} plus optional "word"."""
    from .homog import PartialIsometryRelation

    obj = require_object(load_json(path), "relation", ("space", "relations"))
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    names: list[str] = []
    rels: list[PartialIsometryRelation] = []
    for i, r in enumerate(obj["relations"]):
        require_object(r, "relation", ("pairs",))
        name = r.get("name", f"r{i}")
        if not isinstance(name, str):
            raise ValidationError(f"relation name {name!r} is not a string")
        names.append(name)
        rels.append(PartialIsometryRelation(
            space, tuple((a, b) for a, b in r["pairs"])))
    if len(set(names)) != len(names):
        raise ValidationError("duplicate relation names")
    word_text = obj.get("word")
    if word_text is not None and not isinstance(word_text, str):
        raise ValidationError("relation field 'word' must be a string")
    return space, names, rels, word_text


def load_index_relation(path: str):
    """Relation on a carrier: {"space": <inline space>, "pairs": [[i, j],
    ...]} with non-negative integer indices into the carrier's members."""
    obj = require_object(load_json(path), "relation", ("space", "pairs"))
    space = space_from_obj(obj["space"])
    for pair in obj["pairs"]:
        if any(not is_grid_int(i, 0) for i in pair):
            raise ValidationError(f"pair {pair!r} is not two non-negative integers")
    return space, frozenset((a, b) for a, b in obj["pairs"])


def load_instance(path: str) -> EnumeratedPair:
    from .gh import EnumeratedPair

    obj = require_object(load_json(path), "instance", ("X", "Y"))
    base = os.path.dirname(path) or "."
    return EnumeratedPair(load_space_ref(obj["X"], base), load_space_ref(obj["Y"], base))
