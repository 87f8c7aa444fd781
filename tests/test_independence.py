"""Oracle independence of the pure Graev pair, read off the source.

The interval dynamic program and the pairing enumeration in ``_fallback.py``
check each other only if neither computes through the other. This test
builds the file's call graph with ``ast`` (a nested ``def`` is a node of
its own, named ``outer.inner``; any load of a function's name counts as a
use, so passing one as an argument is caught too) and asserts:

- the two sides meet only in the input checks of ``SHARED``;
- each side is its roots and those checks, nothing else;
- only the sweep, ``graev_agree_exhaustive`` and its ``walk``, reaches both.

It checks names, not values: that the enumeration side never reuses a
value computed for another pairing is left to review.
"""

import ast
from pathlib import Path

from urygrid._kernels import _fallback

DP_ROOTS = {"graev_norm_dp", "graev_dp_step", "_dp_column", "_child_terms", "_finish_norms"}
ENUM_ROOTS = {"graev_norm_bruteforce", "graev_pairing_step", "_complete_min",
              "_child_closers", "_finish_minima"}

# the only functions both sides may reach, each with its reason
SHARED = {
    "_check_alphabet": "input check: refuses a malformed alphabet in the compiled "
                       "kernels' words and computes no norm",
    "_check_word": "input check: refuses a malformed word in the compiled kernels' "
                   "words and computes no norm",
}

# the only functions that may reach both sides: they compare the two
SWEEP = {"graev_agree_exhaustive", "graev_agree_exhaustive.walk"}


def call_graph(source: str) -> dict[str, set[str]]:
    """Each function's qualified name -> the functions whose names it loads,
    its own nested defs resolved before the names around it."""
    graph: dict[str, set[str]] = {}

    def visit(fn, qualname, scope):
        nodes, defs, stack = [], [], list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                defs.append(node)
            else:
                nodes.append(node)
                stack.extend(ast.iter_child_nodes(node))
        scope = {**scope, **{d.name: f"{qualname}.{d.name}" for d in defs}}
        graph[qualname] = {scope[n.id] for n in nodes if isinstance(n, ast.Name)
                           and isinstance(n.ctx, ast.Load) and n.id in scope}
        for d in defs:
            visit(d, scope[d.name], scope)

    tree = ast.parse(source)
    top = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in top:
        visit(node, node.name, {d.name: d.name for d in top})
    return graph


GRAPH = call_graph(Path(_fallback.__file__).read_text())


def reach(roots) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(GRAPH[name])
    return seen


def test_the_sides_meet_only_in_the_input_checks():
    assert reach(DP_ROOTS) & reach(ENUM_ROOTS) == set(SHARED)


def test_each_side_is_its_roots_and_the_input_checks():
    assert reach(DP_ROOTS) == DP_ROOTS | set(SHARED)
    assert reach(ENUM_ROOTS) == ENUM_ROOTS | set(SHARED)


def test_only_the_sweep_reaches_both_sides():
    dp, enum = reach(DP_ROOTS) - set(SHARED), reach(ENUM_ROOTS) - set(SHARED)
    both = {name for name in GRAPH if reach({name}) & dp and reach({name}) & enum}
    assert both == SWEEP
