"""JSON readers and writers for the on-disk formats.

Every reader validates through the library constructors, so malformed files
fail with the same errors as malformed values. Writers emit canonical JSON
(sorted keys, fixed separators, trailing newline) so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json
import os

from .bikatetov import BiKatetovMatrix
from .errors import ValidationError
from .gh import EnumeratedPair
from .graev import WeightedAlphabet, Word, parse_word
from .homog import PartialIsometryRelation
from .katetov import KatetovFunction
from .spaces import FiniteMetricSpace, PartialSpec


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


def _resolve(obj, base_dir: str):
    """A reference is either an inline object or a path string relative to
    the referring file."""
    if isinstance(obj, str):
        return load_json(os.path.join(base_dir, obj))
    return obj


def space_from_obj(obj) -> FiniteMetricSpace:
    if not isinstance(obj, dict):
        raise ValidationError("space must be a JSON object")
    for key in ("points", "denominator", "dist"):
        if key not in obj:
            raise ValidationError(f"space object lacks {key!r}")
    return FiniteMetricSpace(tuple(obj["points"]), obj["denominator"],
                             tuple(tuple(r) for r in obj["dist"]),
                             bool(obj.get("pseudo", False)))


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
    obj = load_json(path)
    for key in ("points", "denominator", "entries"):
        if key not in obj:
            raise ValidationError(f"partial space object lacks {key!r}")
    return PartialSpec(tuple(obj["points"]), obj["denominator"],
                       tuple(tuple(r) for r in obj["entries"]))


def load_katetov(path: str) -> KatetovFunction:
    obj = load_json(path)
    for key in ("space", "support", "values"):
        if key not in obj:
            raise ValidationError(f"katetov function object lacks {key!r}")
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    return KatetovFunction(space, tuple(obj["support"]), tuple(obj["values"]))


def load_matrix(path: str) -> BiKatetovMatrix:
    obj = load_json(path)
    for key in ("space", "entries"):
        if key not in obj:
            raise ValidationError(f"matrix object lacks {key!r}")
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    return BiKatetovMatrix(space, tuple(tuple(r) for r in obj["entries"]))


def matrix_to_obj(m: BiKatetovMatrix) -> dict:
    return {"space": space_to_obj(m.space), "entries": [list(r) for r in m.entries]}


def load_alphabet_word(path: str):
    """Word file: {"alphabet": <space ref>, "weights": [...], "word": "..."}
    or the two-word variant with "u" and "v" instead of "word"."""
    obj = load_json(path)
    for key in ("alphabet", "weights"):
        if key not in obj:
            raise ValidationError(f"word object lacks {key!r}")
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
    obj = load_json(path)
    for key in ("space", "relations"):
        if key not in obj:
            raise ValidationError(f"relation object lacks {key!r}")
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    names: list[str] = []
    rels: list[PartialIsometryRelation] = []
    for i, r in enumerate(obj["relations"]):
        names.append(r.get("name", f"r{i}"))
        rels.append(PartialIsometryRelation(
            space, tuple((a, b) for a, b in r["pairs"])))
    if len(set(names)) != len(names):
        raise ValidationError("duplicate relation names")
    word_text = obj.get("word")
    return space, names, rels, word_text


def load_single_relation(path: str) -> PartialIsometryRelation:
    obj = load_json(path)
    for key in ("space", "pairs"):
        if key not in obj:
            raise ValidationError(f"relation object lacks {key!r}")
    space = load_space_ref(obj["space"], os.path.dirname(path) or ".")
    return PartialIsometryRelation(space, tuple((a, b) for a, b in obj["pairs"]))


def load_instance(path: str) -> EnumeratedPair:
    obj = load_json(path)
    for key in ("X", "Y"):
        if key not in obj:
            raise ValidationError(f"instance object lacks {key!r}")
    base = os.path.dirname(path) or "."
    return EnumeratedPair(load_space_ref(obj["X"], base), load_space_ref(obj["Y"], base))
