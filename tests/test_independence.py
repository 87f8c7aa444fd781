"""Oracle independence, read off the source.

A fast route and its brute-force twin check each other only if neither
computes through the other. This test builds the package's call graph with
``ast`` and checks that, for two kinds of pair.

The graph has a node for every function, method and class of the package,
named ``module.qualname`` relative to it (``bikatetov.product``,
``_kernels._fallback.graev_norm_dp``; a nested ``def`` is a node of its
own, named ``outer.inner``). A function uses:

- every function or class whose name its body loads, so passing one as an
  argument is caught too. Its nested defs are resolved first, then the
  imports in its body, then its module's own names and imports. A
  ``from .x import y`` is followed to the module that defines ``y``, and
  ``_kernels`` resolves to the pure fallback, which it binds first;
- ``m.attr`` for a module ``m``, ``C.attr`` for a class ``C``, and
  ``self.attr``/``cls.attr`` inside ``C``, when ``attr`` is a method. A
  method ``C`` inherits is looked up along its bases in the package, so
  ``BiKatetovMatrix._trusted`` reaches ``grid.Record._trusted``;
- nothing through an annotation, which is never evaluated.

A class uses all its methods, so building a record counts as reaching all
of it. A method called on an instance (``space.flat()``) is not resolved:
the records both routes read are their inputs, and a call of the other
route must name it.

**The pure Graev pair.** The interval dynamic program and the pairing
enumeration in ``_fallback.py``:

- the two sides meet only in the input checks of ``SHARED``;
- each side is its roots and those checks, nothing else;
- only the sweep, ``graev_agree_exhaustive`` and its ``walk``, reaches both.

It checks names, not values. Whether the enumeration side reuses a value
computed for another pairing is left to review, under one rule: the pairing
side costs every closer (a partial pairing with one open arc) against every
leaf, and it takes a minimum only over complete states. So it never keeps
only the cheapest of the closers of one letter and sign, though they differ
only in cost: that would compare pairings before the leaf closes them. A
child's unpaired leaves, and the arc it opens on the word's complete
states, take the cheapest complete state, which is a minimum over complete
states.

Both family helpers read two tables that the sweep builds once from the
input alphabet: each letter's distance row, sliced from ``dist``, and a
family's layout, each leaf's weight from ``weights``. They are inputs, not
values either side computes, so handing them to both sides shares no
computed value. A wrong table would mislead both sides alike, so
``tests/test_graev.py`` checks the tables each side gets against the input.

**The compiled Graev pair.** The interval DP ``graev_dp`` and the pairing
enumeration ``graev_bf`` in ``_kernels/_ext.c``, read as text: a regex finds
each ``static`` function definition, and a function uses every static
function its body names (comments and string literals left out):

- the two routes meet only in the functions of ``C_SHARED``;
- only ``graev_norm``, which runs one route chosen by its flag, and
  ``graev_agree_exhaustive``, which compares them, are where the two
  routes meet: each reaches both, and no one function it calls does. The
  kernels ``graev_norm_dp`` and ``graev_norm_bruteforce`` reach both only
  through ``graev_norm``.

**The Python pairs** of ``PAIRS``, which the law registry compares: each
route and its oracle reach in common only the names of ``ALLOWED``, and
the walk stops at those. Every allowlisted name is shared by some pair, so
a name that stops being shared leaves the list too.
"""

import ast
import re
from pathlib import Path

import pytest

import urygrid
from urygrid import _kernels


def body_nodes(statements):
    """The nodes under ``statements``, outside any def or class, and the
    defs and classes at their top."""
    nodes, defs, stack = [], [], list(statements)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        else:
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
    return nodes, defs


def package_graph(root: Path) -> dict[str, set[str]]:
    """Each function, method and class of the package at ``root`` -> the
    ones it uses, by the rules of the module docstring."""
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        package = parts[-1] == "__init__"
        modules[".".join(parts[:-1] if package else parts)] = (
            ast.parse(path.read_text()), package)

    def imported(mod, nodes):
        # name -> (module, name) for each relative import; the first in the
        # source wins
        out = {}
        for node in sorted((n for n in nodes if isinstance(n, ast.ImportFrom)),
                           key=lambda n: n.lineno):
            if node.level:
                parts = mod.split(".") if modules[mod][1] else mod.split(".")[:-1]
                parts = [p for p in parts[:len(parts) + 1 - node.level] if p]
                src = ".".join(parts + [node.module] if node.module else parts)
                for alias in node.names:
                    out.setdefault(alias.asname or alias.name, (src, alias.name))
        return out

    tops, imports, classes, bases = {}, {}, {}, {}
    for mod, (tree, _) in modules.items():
        nodes, defs = body_nodes(tree.body)
        tops[mod] = {d.name for d in defs}
        imports[mod] = imported(mod, nodes)
        for d in defs:
            if isinstance(d, ast.ClassDef):
                name = f"{mod}.{d.name}".lstrip(".")
                classes[name] = {m.name for m in d.body if isinstance(m, ast.FunctionDef)}
                bases[name] = (mod, [b.id for b in d.bases if isinstance(b, ast.Name)])

    def resolve(mod, name):
        """("def", node), ("module", name) or None: a constant, or a name
        from outside the package."""
        while True:
            joined = f"{mod}.{name}".lstrip(".")
            if name in tops.get(mod, ()):
                return "def", joined
            if joined in modules:
                return "module", joined
            if name not in imports.get(mod, ()):
                return None
            mod, name = imports[mod][name]

    def method(cls, attr):
        """``cls.attr`` when it is a method of cls or of a package class
        it derives from, searched depth first, or None."""
        if attr in classes[cls]:
            return f"{cls}.{attr}"
        mod, names = bases[cls]
        for name in names:
            ref = resolve(mod, name)
            found = ref and ref[1] in classes and method(ref[1], attr)
            if found:
                return found
        return None

    graph: dict[str, set[str]] = {}

    def visit(fn, mod, qualname, scope, cls):
        nodes, defs = body_nodes(fn.body)
        scope = {**scope,
                 **{name: resolve(*src) for name, src in imported(mod, nodes).items()},
                 **{d.name: ("def", f"{qualname}.{d.name}") for d in defs}}

        def lookup(name):
            if cls and name in ("self", "cls"):
                return "def", cls
            return scope[name] if name in scope else resolve(mod, name)

        uses, prefixes = set(), set()
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Name):
                ref = lookup(node.value.id)
                if ref and ref[0] == "module":
                    prefixes.add(node.value)
                    found = resolve(ref[1], node.attr)
                    if found and found[0] == "def":
                        uses.add(found[1])
                elif ref and ref[1] in classes:
                    prefixes.add(node.value)
                    found = method(ref[1], node.attr)
                    if found:
                        uses.add(found)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node not in prefixes:
                ref = lookup(node.id)
                if ref and ref[0] == "def":
                    uses.add(ref[1])
        graph[qualname] = uses
        for d in defs:
            visit(d, mod, f"{qualname}.{d.name}", scope, cls)

    for mod, (tree, _) in modules.items():
        for d in body_nodes(tree.body)[1]:
            qualname = f"{mod}.{d.name}".lstrip(".")
            if isinstance(d, ast.ClassDef):
                graph[qualname] = {f"{qualname}.{m}" for m in classes[qualname]}
                for m in d.body:
                    if isinstance(m, ast.FunctionDef):
                        visit(m, mod, f"{qualname}.{m.name}", {}, qualname)
            else:
                visit(d, mod, qualname, {}, None)
    return graph


GRAPH = package_graph(Path(urygrid.__file__).parent)


def reach(roots, stop=(), graph=GRAPH) -> set[str]:
    """Every node of ``graph`` reachable from ``roots``, not walking on from
    ``stop``."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name not in stop:
                todo.extend(graph[name])
    return seen


# --- the pure Graev pair -------------------------------------------------

FALLBACK = "_kernels._fallback."


def fallback(names) -> set[str]:
    return {FALLBACK + name for name in names}


DP_ROOTS = {"graev_norm_dp", "graev_dp_step", "_dp_column", "_family_norms"}
ENUM_ROOTS = {"graev_norm_bruteforce", "graev_pairing_step", "_complete_min", "_family_minima"}

# the only functions both sides may reach, each with its reason
SHARED = {
    "_check_alphabet": "input check: refuses a malformed alphabet in the compiled "
                       "kernels' words and computes no norm",
    "_check_word": "input check: refuses a malformed word in the compiled kernels' "
                   "words and computes no norm",
}

# the only functions that may reach both sides: they compare the two
SWEEP = {"graev_agree_exhaustive", "graev_agree_exhaustive.walk"}


def test_the_sides_meet_only_in_the_input_checks():
    assert reach(fallback(DP_ROOTS)) & reach(fallback(ENUM_ROOTS)) == fallback(SHARED)


def test_each_side_is_its_roots_and_the_input_checks():
    assert reach(fallback(DP_ROOTS)) == fallback(DP_ROOTS | set(SHARED))
    assert reach(fallback(ENUM_ROOTS)) == fallback(ENUM_ROOTS | set(SHARED))


def test_only_the_sweep_reaches_both_sides():
    dp = reach(fallback(DP_ROOTS)) - fallback(SHARED)
    enum = reach(fallback(ENUM_ROOTS)) - fallback(SHARED)
    both = {name for name in GRAPH if name.startswith(FALLBACK)
            and reach({name}) & dp and reach({name}) & enum}
    assert both == fallback(SWEEP)


# --- the compiled Graev pair ---------------------------------------------

def c_graph(source: str) -> dict[str, set[str]]:
    """Each static function defined in the C ``source`` -> the static
    functions its body names. A definition opens its body with ``{`` and
    closes it with ``}``, each at the start of a line."""
    code = re.sub(r'/\*.*?\*/|"(?:\\.|[^"\\])*"', " ", source, flags=re.S)
    bodies = dict(re.findall(r"^static\b[^;{(=]*?(\w+)\([^{;]*?^\{(.*?)^\}", code,
                             flags=re.M | re.S))
    return {name: set(re.findall(r"\w+", body)) & bodies.keys() for name, body in bodies.items()}


C_GRAPH = c_graph((Path(urygrid.__file__).parent / "_kernels" / "_ext.c").read_text())

# the only static functions both C routes may reach, each with its reason.
# None today: each kernel checks its input before either route runs, so
# neither route calls a helper.
C_SHARED: dict[str, str] = {}

# where the two C routes meet: graev_norm runs one of them, chosen by its
# flag, and the sweep compares them
C_MEETINGS = {"graev_norm", "graev_agree_exhaustive"}


def c_reach(root: str) -> set[str]:
    return reach({root}, graph=C_GRAPH)


def test_the_c_graph_holds_every_kernel():
    kernels = set(_kernels.__all__) - {"BACKEND", "INF"}
    assert kernels | {"graev_dp", "graev_bf"} | C_MEETINGS <= C_GRAPH.keys()


def test_the_c_routes_meet_only_in_the_allowlist():
    assert c_reach("graev_dp") & c_reach("graev_bf") == set(C_SHARED)


def test_only_graev_norm_and_the_sweep_reach_both_c_routes():
    dp = c_reach("graev_dp") - set(C_SHARED)
    bf = c_reach("graev_bf") - set(C_SHARED)

    def reaches_both(name):
        return bool(c_reach(name) & dp and c_reach(name) & bf)

    meetings = {name for name in C_GRAPH if reaches_both(name)
                and not any(reaches_both(callee) for callee in C_GRAPH[name] - {name})}
    assert meetings == C_MEETINGS


# --- the Python pairs ------------------------------------------------------

# each fast route and its oracle
PAIRS = [("bikatetov.product", "bikatetov.product_via_amalgam"),
         ("gh.gh_distance", "gh.gh_distance_oracle"),
         ("katetov.build_approximant", "katetov.injectivity_check")]

# the only names a route and its oracle may both reach, each with its reason
ALLOWED = {
    "_kernels._fallback._refuse_matrices": "input check: words the refusal of a "
                                           "malformed matrix as the compiled kernels do "
                                           "and computes no entry",
    "bikatetov._same_base": "input check: refuses two matrices over different bases "
                            "and computes no entry",
    "grid.half_grid_value": "output format: writes a count of half-grid steps as a "
                            "fraction; each side finds its count on its own",
    "katetov._require_subset": "input check: refuses a malformed max support size "
                               "and lists nothing",
    "katetov._profiles": "the one listing of a support's Katetov profiles, checked "
                         "against a brute-force filter in tests/test_grid.py; the "
                         "oracle looks every profile up among the rows, the builder "
                         "scans the zero-free ones through sphere masks",
    "katetov._inside": "the key of that listing: a support's inside distances, read "
                       "off the matrix",
}


@pytest.mark.parametrize("fast, oracle", PAIRS, ids=[oracle for _, oracle in PAIRS])
def test_route_and_oracle_meet_only_in_the_allowlist(fast, oracle):
    assert fast in GRAPH and oracle in GRAPH
    assert reach({fast}, ALLOWED) & reach({oracle}, ALLOWED) <= set(ALLOWED)


def test_every_allowlisted_name_is_shared():
    shared = set().union(*(reach({fast}, ALLOWED) & reach({oracle}, ALLOWED)
                           for fast, oracle in PAIRS))
    assert shared == set(ALLOWED)
