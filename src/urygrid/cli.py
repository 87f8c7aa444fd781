"""Command-line front end.

Every numeric output is an exact fraction numerator/denominator. Exit codes:
0 success, 1 input validation failure, 2 guard refusal, 3 internal
invariant breach or any other unexpected exception. ``--json`` switches to
canonical machine-readable output; identical inputs then produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .errors import GuardError, InvariantError, UrygridError, ValidationError
from .grid import frac_str

# Each cmd_* imports the library names it uses when it runs, so a process
# pays only for the modules behind its own subcommand.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _emit(args, machine, human_lines):
    if args.json:
        sys.stdout.write(fileio.canonical_dumps(machine))
    else:
        for line in human_lines:
            print(line)


def _matrix_out(args, m, label="matrix"):
    q = m.space.denominator
    human = [label + ":"]
    for p, row in zip(m.space.points, m.entries):
        human.append("  " + p + "  " + "  ".join(frac_str(e, q) for e in row))
    _emit(args, fileio.matrix_to_obj(m), human)


def cmd_validate(args):
    from .spaces import validate_space

    obj = fileio.require_object(fileio.load_json(args.space), "space", fileio.SPACE_KEYS)
    report = validate_space(obj["points"], obj["denominator"], obj["dist"],
                            obj.get("pseudo", False))
    machine = {"valid": report.ok,
               "problems": [{"kind": v.kind, "message": v.message} for v in report.problems]}
    human = ["valid"] if report.ok else [f"{v.kind}: {v.message}" for v in report.problems]
    _emit(args, machine, human)
    return 0 if report.ok else 1


def cmd_complete(args):
    from .spaces import shortest_path_completion

    spec = fileio.load_partial(args.partial)
    out = shortest_path_completion(spec)
    _emit(args, fileio.space_to_obj(out),
          [f"{a} {b} {frac_str(out.dist[i][j], out.denominator)}"
           for i, a in enumerate(out.points) for j, b in enumerate(out.points) if i < j])
    return 0


def cmd_amalgam(args):
    from .spaces import amalgam

    x = fileio.load_space(args.x)
    y = fileio.load_space(args.y)
    glue = {}
    for item in args.glue or []:
        if "=" not in item:
            raise ValidationError(f"glue entries look like xpoint=ypoint, got {item!r}")
        a, b = item.split("=", 1)
        if a in glue:
            raise ValidationError(f"point {a!r} is glued twice ({glue[a]!r} and {b!r})")
        glue[a] = b
    out = amalgam(x, y, glue)
    _emit(args, fileio.space_to_obj(out),
          [f"{len(out.points)} points over 1/{out.denominator}"]
          + [f"{a} {b} {frac_str(out.dist[i][j], out.denominator)}"
             for i, a in enumerate(out.points) for j, b in enumerate(out.points) if i < j])
    return 0


def cmd_katetov(args):
    from .katetov import katetov_extension, katetov_witness, realize_one_point

    f = fileio.load_katetov(args.function)
    q = f.space.denominator
    if args.action == "check":
        w = katetov_witness(f)
        _emit(args, {"katetov": w is None, "witness": list(w) if w else None},
              ["katetov" if w is None else f"not katetov, witness pair {w}"])
        return 0 if w is None else 1
    if args.action == "extend":
        g = katetov_extension(f)
        _emit(args, {"support": list(g.support), "values": list(g.values)},
              [f"{p} {frac_str(v, q)}" for p, v in zip(g.support, g.values)])
        return 0
    g = katetov_extension(f) if not f.total else f
    ext = realize_one_point(f.space, g, name=args.name)
    machine = fileio.space_to_obj(ext.space)
    machine["new_point"] = ext.new_point
    machine["identified_with"] = list(ext.identified_with)
    human = [f"added {ext.new_point}"]
    if ext.identified_with:
        human.append("warning: pseudometric, identified with "
                     + ", ".join(ext.identified_with))
    _emit(args, machine, human)
    return 0


def cmd_approximant(args):
    from .katetov import build_approximant, injectivity_check

    if args.action == "build":
        seed = fileio.load_space(args.space)
        q = args.grid if args.grid is not None else seed.denominator
        result = build_approximant(seed, args.subset, q, args.cap,
                                   rng_seed=args.seed, strategy=args.strategy)
        machine = fileio.space_to_obj(result.space)
        machine["status"] = result.status
        machine["added"] = result.added
        machine["strategy"] = result.strategy
        _emit(args, machine,
              [f"status {result.status}, {result.space.n} points "
               f"({result.added} added, {result.strategy} strategy)"])
        return 0
    space = fileio.load_space(args.space)
    report = injectivity_check(space, args.subset)
    machine = {"checked": report.checked,
               "unrealized": [{"support": list(s), "values": list(v)}
                              for s, v in report.unrealized]}
    human = [f"checked {report.checked} profiles, {len(report.unrealized)} unrealized"]
    human += [f"  {s} {v}" for s, v in report.unrealized[:50]]
    _emit(args, machine, human)
    return 0 if report.ok else 1


def cmd_isogroup(args):
    from .isometry import iso_group

    space = fileio.load_space(args.space)
    perms = iso_group(space)
    names = [[space.points[p] for p in perm] for perm in perms]
    _emit(args, {"order": len(perms), "isometries": names},
          [f"order {len(perms)}"] + ["  " + " ".join(row) for row in names])
    return 0


def cmd_theta(args):
    from .bikatetov import (classify_idempotents, greatest_idempotent,
                            invertible_isometry, product, routing_idempotent, star)

    want = 2 if args.action == "product" else 1
    if args.action != "greatest" and len(args.inputs) != want:
        raise ValidationError(f"theta {args.action} takes {want} file"
                              f"{'s' if want > 1 else ''}, got {len(args.inputs)}")
    if args.action == "product":
        f = fileio.load_matrix(args.inputs[0])
        g = fileio.load_matrix(args.inputs[1])
        _matrix_out(args, product(f, g))
        return 0
    if args.action == "star":
        _matrix_out(args, star(fileio.load_matrix(args.inputs[0])))
        return 0
    if args.action == "bf":
        space = fileio.load_space(args.inputs[0])
        subset = [p for p in (args.points.split(",") if args.points else []) if p]
        _matrix_out(args, routing_idempotent(space, subset))
        return 0
    if args.action == "classify":
        space = fileio.load_space(args.inputs[0])
        pairs = classify_idempotents(space)
        machine = {"count": len(pairs),
                   "idempotents": [{"subset": list(sub), "entries": [list(r) for r in m.entries]}
                                   for m, sub in pairs]}
        _emit(args, machine,
              [f"{len(pairs)} idempotents dominate the metric"]
              + [f"  routes through {{{', '.join(sub) or ''}}}" for _, sub in pairs])
        return 0
    if args.action == "greatest":
        gens = [fileio.load_matrix(p) for p in args.inputs]
        top = greatest_idempotent(gens)
        if top is None:
            _emit(args, {"greatest": None}, ["none (no generated element dominates the metric)"])
            return 0
        _matrix_out(args, top, label="greatest idempotent")
        return 0
    f = fileio.load_matrix(args.inputs[0])
    perm = invertible_isometry(f)
    if perm is None:
        _emit(args, {"invertible": False, "isometry": None}, ["not invertible"])
        return 0
    names = [f.space.points[p] for p in perm]
    _emit(args, {"invertible": True, "isometry": names},
          ["invertible via " + " ".join(names)])
    return 0


def cmd_graev(args):
    from .graev import difference_word, graev_norm, graev_norm_bruteforce

    alphabet, words = fileio.load_alphabet_word(args.word)
    q = alphabet.denominator
    norm = graev_norm_bruteforce if args.oracle else graev_norm
    if args.action == "norm":
        if "word" not in words:
            raise ValidationError("norm needs a 'word' field")
        value = norm(words["word"], alphabet)
        _emit(args, {"norm": [value, q]}, [frac_str(value, q)])
        return 0
    if "u" not in words or "v" not in words:
        raise ValidationError("dist needs 'u' and 'v' fields")
    value = norm(difference_word(words["u"], words["v"], alphabet), alphabet)
    _emit(args, {"distance": [value, q]}, [frac_str(value, q)])
    return 0


def cmd_homog(args):
    from .graev import format_word, graev_norm, parse_word
    from .homog import (composition_weight_bound, nu_truncated, relation_alphabet,
                        word_image)

    space, names, rels, word_text = fileio.load_relations(args.relations)
    q = space.denominator
    alphabet = relation_alphabet(rels, names)

    def need_word():
        text = args.word if args.word is not None else word_text
        if text is None:
            raise ValidationError("no word given (field 'word' or flag --word)")
        return parse_word(alphabet, text)

    if args.action == "phi":
        word = need_word()
        img = sorted(word_image(rels, word))
        pairs = [[space.points[a], space.points[b]] for a, b in img]
        _emit(args, {"pairs": pairs},
              [f"({a},{b})" for a, b in pairs] or ["empty relation"])
        return 0
    if args.action == "nu":
        if args.frm is None or args.to is None:
            raise ValidationError("nu needs --from and --to points")
        result = nu_truncated(rels, args.frm, args.to, args.max_len)
        if result.value is None:
            _emit(args, {"value": None, "searched": result.words_searched},
                  [f"none ({result.words_searched} words searched)"])
            return 0
        _emit(args, {"value": [result.value, q],
                     "word": format_word(alphabet, result.word),
                     "searched": result.words_searched},
              [frac_str(result.value, q)
               + f"  via '{format_word(alphabet, result.word)}'"])
        return 0
    if args.action == "lemma42":
        word = need_word()
        norm = graev_norm(word, alphabet)
        img = sorted(word_image(rels, word))
        bad = [(a, b) for a, b in img if norm < space.dist[a][b]]
        machine = {"norm": [norm, q],
                   "pairs": len(img),
                   "violations": [[space.points[a], space.points[b]] for a, b in bad]}
        human = [f"norm {frac_str(norm, q)} against {len(img)} related pairs: "
                 + ("all bounded below" if not bad else f"{len(bad)} violations")]
        _emit(args, machine, human)
        return 0 if not bad else 3
    picked = []
    for nm in (args.names or "").split(","):
        nm = nm.strip()
        if nm:
            if nm not in names:
                raise ValidationError(f"unknown relation name {nm!r}")
            picked.append(rels[names.index(nm)])
    signs = []
    for s in (args.signs or "").split(","):
        s = s.strip()
        if s:
            if s not in ("+", "-", "+1", "-1"):
                raise ValidationError(f"signs are + or -, got {s!r}")
            signs.append(1 if s.startswith("+") else -1)
    verdict = composition_weight_bound(args.case, picked, signs)
    if verdict is None:
        _emit(args, {"holds": None}, ["skip: empty composition"])
        return 0
    _emit(args, {"holds": verdict}, ["holds" if verdict else "VIOLATED"])
    return 0 if verdict else 3


def cmd_gh(args):
    from .gh import gh_distance, gh_distance_oracle

    inst = fileio.load_instance(args.instance)
    num, den = gh_distance_oracle(inst) if args.oracle else gh_distance(inst)
    _emit(args, {"distance": [num, den]}, [frac_str(num, den)])
    return 0


def cmd_relations(args):
    from . import relations as rel

    if args.action == "k":
        space = fileio.load_space(args.input)
        carrier = rel.enumerate_carrier(space)
        _emit(args, {"size": carrier.size, "members": [list(m) for m in carrier.members]},
              [f"{carrier.size} non-expanding functions"]
              + ["  " + " ".join(frac_str(v, space.denominator) for v in m)
                 for m in carrier.members])
        return 0
    if args.action == "h":
        space, r = fileio.load_index_relation(args.input)
        carrier = rel.enumerate_carrier(space)
        entries = rel.matrix_of_relation(carrier, r)
        q = space.denominator
        _emit(args, {"entries": [list(row) for row in entries]},
              ["  ".join(frac_str(e, q) for e in row) for row in entries])
        return 0
    f = fileio.load_matrix(args.input)
    carrier = rel.enumerate_carrier(f.space)
    r = rel.relation_of_matrix(carrier, f)
    if args.action == "hinv":
        _emit(args, {"members": [list(m) for m in carrier.members],
                     "size": len(r), "pairs": sorted([a, b] for a, b in r)},
              [f"{len(r)} pairs of {carrier.size}^2"])
        return 0
    back = rel.matrix_of_relation(carrier, r)
    ok = back == f.entries
    _emit(args, {"roundtrip": ok},
          ["round trip exact" if ok else "ROUND TRIP FAILED"])
    return 0 if ok else 3


def cmd_selftest(args):
    from .laws import LAWS, QUICK

    results = []
    for name, law in LAWS:
        try:
            law(QUICK)
            results.append({"name": name, "ok": True, "detail": None})
        except Exception as e:  # a failure here is a library bug
            results.append({"name": name, "ok": False,
                            "detail": f"{type(e).__name__}: {e}"})
    passed = sum(r["ok"] for r in results)
    ok = passed == len(results)
    _emit(args, {"results": results, "ok": ok},
          [f"PASS {r['name']}" if r["ok"] else f"FAIL {r['name']}: {r['detail']}"
           for r in results]
          + [("all checks passed" if ok else "CHECKS FAILED")
             + f" ({passed}/{len(results)})"])
    return 0 if ok else 3


def build_parser() -> _Parser:
    p = _Parser(prog="urygrid", description=__doc__)
    p.add_argument("--json", action="store_true", help="canonical machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check a space file against the metric axioms")
    s.add_argument("space")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("complete", help="fill unspecified entries by capped shortest chains")
    s.add_argument("partial")
    s.set_defaults(func=cmd_complete)

    s = sub.add_parser("amalgam", help="glue two spaces along an isometry")
    s.add_argument("x")
    s.add_argument("y")
    s.add_argument("--glue", action="append", metavar="XPOINT=YPOINT")
    s.set_defaults(func=cmd_amalgam)

    s = sub.add_parser("katetov", help="check, extend or realize a point profile")
    s.add_argument("action", choices=["check", "extend", "realize"])
    s.add_argument("function")
    s.add_argument("--name", help="name for the realized point")
    s.set_defaults(func=cmd_katetov)

    s = sub.add_parser("approximant", help="grow or verify a profile-closed space")
    s.add_argument("action", choices=["build", "verify"])
    s.add_argument("space")
    s.add_argument("--subset", type=int, required=True, help="max profile support size")
    s.add_argument("--cap", type=int, default=64, help="point budget for build")
    s.add_argument("--grid", type=int, help="grid denominator (default: the seed's)")
    s.add_argument("--seed", type=int, default=0, help="random seed for free distances")
    s.add_argument("--strategy", choices=["auto", "random", "transitive"],
                   default="auto", help="free-distance policy for build")
    s.set_defaults(func=cmd_approximant)

    s = sub.add_parser("isogroup", help="enumerate all self-isometries")
    s.add_argument("space")
    s.set_defaults(func=cmd_isogroup)

    s = sub.add_parser("theta", help="bounded min-plus matrix semigroup operations")
    s.add_argument("action", choices=["product", "star", "bf", "classify",
                                      "greatest", "invert"])
    s.add_argument("inputs", nargs="+")
    s.add_argument("--points", default="", help="comma list of points for bf (may be empty)")
    s.set_defaults(func=cmd_theta)

    s = sub.add_parser("graev", help="seminorms and distances on free-group words")
    s.add_argument("action", choices=["norm", "dist"])
    s.add_argument("word", help="word file")
    s.add_argument("--oracle", action="store_true",
                   help="force the brute-force pairing enumeration")
    s.set_defaults(func=cmd_graev)

    s = sub.add_parser("homog", help="relation words over partial isometries")
    s.add_argument("action", choices=["phi", "nu", "lemma42", "lemma43"])
    s.add_argument("relations", help="relation stock file")
    s.add_argument("--word", help="relation word (overrides the file's)")
    s.add_argument("--from", dest="frm", help="source point for nu")
    s.add_argument("--to", help="target point for nu")
    s.add_argument("--max-len", type=int, default=3, help="word length bound for nu")
    s.add_argument("--case", type=int, choices=[1, 2, 3], default=1)
    s.add_argument("--names", help="comma list of relation names for lemma43")
    s.add_argument("--signs", help="comma list of +/- for lemma43")
    s.set_defaults(func=cmd_homog)

    s = sub.add_parser("gh", help="enumerated Gromov-Hausdorff distance")
    s.add_argument("action", choices=["dist"])
    s.add_argument("instance")
    s.add_argument("--oracle", action="store_true",
                   help="rediscover the value by feasibility scan")
    s.set_defaults(func=cmd_gh)

    s = sub.add_parser("relations", help="non-expanding function space machinery")
    s.add_argument("action", choices=["k", "h", "hinv", "roundtrip"])
    s.add_argument("input")
    s.set_defaults(func=cmd_relations)

    s = sub.add_parser("selftest", help="run every law of the registry at quick scale")
    s.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return 3
    except UrygridError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # anything else is a bug, not bad input: one line, exit 3
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
