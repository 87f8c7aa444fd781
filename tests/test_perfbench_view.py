"""The library as the benchmark harness under perfbench/ sees it.

The harness wraps the functions named in perfbench/spans.py's TARGETS and
calls the library with keywords from perfbench/workloads.py. Both files are
read here as source, never run or changed, so a refactor that would break a
traced benchmark run fails these tests first."""

import ast
import importlib
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def targets():
    """(span name, module, attribute, class or None) of each TARGETS entry."""
    for node in parse("spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(ast.literal_eval(e) for e in entry.elts[:4])
                    for entry in node.value.elts]
    raise AssertionError("spans.py has no TARGETS list")


def test_every_traced_target_resolves():
    entries = targets()
    assert len(entries) == 31
    for name, modname, attr, cls in entries:
        mod = importlib.import_module(modname)
        if cls is None:
            assert callable(getattr(mod, attr, None)), name
        else:
            # the tracer wraps the class's own entry, not an inherited one
            assert attr in vars(getattr(mod, cls)), name


# the library function behind each keyword call the workloads make
KEYWORD_CALLS = {"homogeneity_check": "urygrid.katetov",
                 "graev_agree_exhaustive": "urygrid.sweep",
                 "build_approximant": "urygrid.katetov"}


@pytest.mark.parametrize("attr", sorted(KEYWORD_CALLS))
def test_workload_keyword_calls_still_bind(attr):
    signature = inspect.signature(getattr(importlib.import_module(KEYWORD_CALLS[attr]), attr))
    calls = [node for node in ast.walk(parse("workloads.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == attr]
    assert calls
    for call in calls:
        keywords = [k.arg for k in call.keywords]
        assert keywords and None not in keywords
        signature.bind(*call.args, **dict.fromkeys(keywords))
