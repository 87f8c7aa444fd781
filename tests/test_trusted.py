"""Trust as a checked property.

Where an exact check or a theorem says a record is valid, the library
builds it with ``grid.Record._trusted``, the one constructor that stores
its fields without checking them. A wrong theorem there yields a silently
invalid object, so this file holds every such call to account, twice:

- **Listed.** An ``ast`` walk over the package finds every ``._trusted(``
  call and names it by its enclosing function (``module.qualname``, as in
  tests/test_independence.py). ``TRUSTED`` gives each such site its theorem,
  in one line, and its judge: the pytest node id of the test that rebuilds
  the site's outputs through the validating constructor. A site missing
  from the table fails, and so does a table row with no site or with a
  judge that does not exist.
- **Re-validated.** One pass runs the law registry at ``QUICK`` and every
  entry of the golden manifest (tests/test_golden.py), the approximant
  builds among them, with ``Record._trusted`` patched, here only, to also
  build ``cls(*values)`` through the validating constructor and assert that
  the two are equal; every listed site must build at least one record in
  it. The library has no switch for this.
"""

import ast
import sys
from pathlib import Path

import pytest

import urygrid
from urygrid import katetov
from urygrid.grid import Record
from urygrid.laws import LAWS, QUICK

from test_independence import GRAPH
from test_golden import MANIFEST, current

PACKAGE = Path(urygrid.__file__).parent
TESTS = Path(__file__).parent

ROUTES = "tests/test_bikatetov.py::TestTrustedRoutes::test_every_trusted_route_is_bikatetov"

# call site -> (theorem, judge)
TRUSTED = {
    "bikatetov._wrap": (
        "the bounded min-plus product of two bi-Katetov matrices is bi-Katetov", ROUTES),
    "bikatetov.metric_unit": (
        "the metric is bi-Katetov: each row and column is a distance function", ROUTES),
    "bikatetov.constant_zero": (
        "the constant diameter is bi-Katetov: |q - q| = 0 <= d <= 2q", ROUTES),
    "bikatetov.star": (
        "transposition swaps the row and the column conditions", ROUTES),
    "bikatetov._relabel": (
        "relabelling the rows and the columns of a bi-Katetov matrix by isometries "
        "keeps each row and column Katetov", ROUTES),
    "bikatetov.routing_idempotent": (
        "the cross distances of two copies of the space glued along a nonempty "
        "subset are bi-Katetov", ROUTES),
    "bikatetov._gibbs": (
        "each Gibbs draw stays in its entry's Katetov interval given all the others",
        ROUTES),
    "homog.relation_alphabet": (
        "Hausdorff distances over a pseudometric obey the triangle inequality, and "
        "largest displacements are 1-Lipschitz for them",
        "tests/test_homog.py::TestTrustedAlphabet::test_validating_constructor_agrees"),
    "katetov._circulant_space": (
        "an exact check: _circulant_row ran the rotated triangle check, or no color "
        "is more than twice another",
        "tests/test_katetov.py::TestCirculantTemplate::test_rotation_check_matches_full_scan"),
    "katetov.build_approximant": (
        "exact checks: each added row passed _new_row_fits (its triangles by theorem "
        "where spaces._unit_grid holds), and a transitive build reads its rows off a "
        "checked template",
        "tests/test_katetov.py::test_built_spaces_revalidate"),
    "spaces.shortest_path_completion": (
        "the capped shortest-chain closure of a mirror-closed specification is a "
        "pseudometric",
        "tests/test_spaces.py::TestTrustedSpaces::test_mirror_closed_closures"),
    "spaces.random_grid_space": (
        "the closure of entries in [1, q] is a metric, and each redraw stays in its "
        "Katetov interval inside [1, q]",
        "tests/test_spaces.py::TestTrustedSpaces::test_random_grid_space"),
}


def trusted_sites(root: Path = PACKAGE) -> set[str]:
    """``module.qualname`` of the function around each ``._trusted(`` call
    in the package at ``root``."""
    sites = set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{qualname}.{child.name}")
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                        and child.func.attr == "_trusted":
                    sites.add(qualname)
                visit(child, qualname)

    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        visit(ast.parse(path.read_text()), ".".join(parts))
    return sites


def judge_exists(node_id: str) -> bool:
    """Whether ``path::name[::name]`` names a test function or class of a
    test file."""
    path, *names = node_id.split("::")
    file = TESTS.parent / path
    if not names or not file.is_file():
        return False
    body = ast.parse(file.read_text()).body
    for name in names:
        found = [d for d in body if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                 and d.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_trusted_call_is_listed():
    assert trusted_sites() == set(TRUSTED)


def test_the_one_trusted_constructor_is_on_record():
    defs = [f"{path.name}:{node.name}" for path in PACKAGE.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name in ("_trusted", "_store")]
    assert defs == ["grid.py:_trusted"]


@pytest.mark.parametrize("site", sorted(TRUSTED))
def test_each_site_has_a_theorem_and_a_judge(site):
    theorem, judge = TRUSTED[site]
    assert theorem and judge_exists(judge), judge


@pytest.mark.parametrize("site", sorted(TRUSTED))
def test_each_site_reaches_record_trusted_in_the_call_graph(site):
    assert "grid.Record._trusted" in GRAPH[site]


def test_a_missing_judge_is_caught():
    assert not judge_exists("tests/test_spaces.py::TestTrustedSpaces::test_no_such_test")
    assert not judge_exists("tests/test_no_such_file.py::test_x")


def test_every_trusted_build_equals_its_validated_twin(monkeypatch):
    trusted = Record._trusted.__func__
    sites = set()

    def checked(cls, *values):
        rec = trusted(cls, *values)
        twin = cls(*values)
        assert twin == rec and hash(twin) == hash(rec), (cls.__name__, values)
        # every listed site is a module-level function, named module.function
        caller = sys._getframe(1)
        sites.add(f'{caller.f_globals["__name__"].removeprefix("urygrid.")}.'
                  f"{caller.f_code.co_name}")
        return rec

    monkeypatch.setattr(Record, "_trusted", classmethod(checked))
    # the template search keeps its circulants across calls: build them here
    katetov._circulant_listing.cache_clear()
    for _, law in LAWS:
        law(QUICK)
    # the CLI reports a failed assertion as exit 3, so each entry must match
    for entry in MANIFEST:
        assert current(entry["argv"]) == entry
    katetov._circulant_listing.cache_clear()
    assert sites == set(TRUSTED)
