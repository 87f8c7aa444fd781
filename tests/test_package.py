"""The package's public surface: every name the package exports, resolved
on first use from the submodule that defines it; and the law registry as
the one home of every acceptance criterion's checks."""

import ast
import collections
import importlib
import os

import pytest

import urygrid
from urygrid import laws

# the names ``from urygrid import *`` bound when the package imported every
# submodule up front; a lazy export table must keep exactly these
EXPORTED = [
    "ApproximantResult", "BiKatetovMatrix", "EnumeratedPair", "FiniteMetricSpace",
    "GridFunctionSpace", "GuardError", "InjectivityReport", "InvariantError",
    "KERNEL_BACKEND", "KatetovFunction", "OnePointExtension", "OrbitDistance",
    "PartialIsometryRelation", "PartialSpec", "QuotientResult", "UrygridError",
    "ValidationError", "ValidationReport", "WeightedAlphabet", "act_left", "act_right",
    "action_graph", "add_capped", "amalgam", "build_approximant",
    "characterization_check", "classify_idempotents", "common_grid",
    "composition_weight_bound", "constant_zero", "distortion", "embed_isometry",
    "enumerate_carrier", "enumerate_pairings", "feasible_at", "frac_str", "gh_distance",
    "gh_distance_oracle", "graev_distance", "graev_norm", "graev_norm_bruteforce",
    "graev_sum", "greatest_idempotent", "half_grid_value", "hausdorff_distance",
    "homogeneity_check", "injectivity_check", "inner_aut", "invertible_isometry",
    "is_bikatetov_matrix", "is_equivalence", "is_katetov", "iso_group",
    "isometry_graphs", "katetov_extension", "katetov_witness", "matrix_of_relation",
    "metric_unit", "nu_truncated", "parse_word", "point_function", "product",
    "product_via_amalgam", "quotient_pseudometric", "random_bikatetov",
    "random_grid_space", "random_partial_isometry", "realize_in_space",
    "realize_one_point", "reduce_word", "relation_alphabet", "relation_of_matrix",
    "restriction_equivalence", "routing_idempotent", "shortest_path_completion", "star",
    "sup_distance", "validate_relation", "validate_space", "weight", "word_image",
    "word_relates",
]


def test_all_is_the_exported_names():
    assert sorted(urygrid.__all__) == EXPORTED
    assert len(urygrid.__all__) == len(EXPORTED)


@pytest.mark.parametrize("name", EXPORTED)
def test_name_resolves_to_its_definition(name):
    value = getattr(urygrid, name)
    if name == "KERNEL_BACKEND":
        assert value is importlib.import_module("urygrid._kernels").BACKEND
        return
    home = importlib.import_module(value.__module__)
    assert home.__name__ != "urygrid"
    assert value is getattr(home, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from urygrid import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == EXPORTED
    for name, value in ns.items():
        assert value is getattr(urygrid, name)


def test_dir_lists_every_name():
    assert set(EXPORTED) <= set(dir(urygrid))


@pytest.mark.parametrize("module", ["_kernels", "spaces", "katetov", "isometry", "bikatetov",
                                    "graev", "homog", "gh", "relations", "grid"])
def test_submodules_resolve_as_attributes(module):
    assert urygrid.__getattr__(module) is importlib.import_module("urygrid." + module)


PACKAGE = os.path.dirname(urygrid.__file__)

# modules that bind names they do not define, on purpose, each with its reason
FACADES = {"urygrid._kernels": "binds one backend's kernels, compiled or pure"}


def package_modules():
    """Every Python module of the package, parsed: dotted name -> (tree,
    whether it is a package's __init__)."""
    out = {}
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            parts = os.path.relpath(path, os.path.dirname(PACKAGE))[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            with open(path, encoding="utf-8") as fh:
                out[".".join(parts)] = (ast.parse(fh.read()), name == "__init__.py")
    return out


def top_level_names(tree):
    """The names a module's own top-level code defines: functions, classes
    and assigned names, not what it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def package_imports(modules):
    """(importer, module imported from, name) for every ``from ... import``
    of the package's own modules, anywhere in the code (on-call imports
    too)."""
    for importer, (tree, is_package) in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = importer if is_package else importer.rpartition(".")[0]
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                target = base + "." + node.module if node.module else base
            elif (node.module or "").partition(".")[0] == "urygrid":
                target = node.module
            else:
                continue
            for alias in node.names:
                yield importer, target, alias.name


def test_package_imports_name_their_owner():
    """Each name is imported from the module that defines it, never through
    a module that imported it in turn; the export table obeys the same
    rule. A submodule may be imported from its package, and the facades
    may be imported from freely."""
    modules = package_modules()
    defined = {name: top_level_names(tree) for name, (tree, _) in modules.items()}
    stray = []
    for importer, target, name in package_imports(modules):
        if target + "." + name in modules or target in FACADES:
            continue
        if target not in modules:
            # a module without Python source: the compiled backend, which
            # only a facade may bind
            assert importer in FACADES, (importer, target)
        elif name not in defined[target]:
            stray.append((importer, target, name))
    for name, (module, attr) in urygrid._EXPORTS.items():
        if "urygrid." + module not in FACADES and attr not in defined["urygrid." + module]:
            stray.append(("urygrid", "urygrid." + module, attr))
    assert not stray
    # the isometry searches stand on the grid helpers alone, so loading
    # them loads no space, approximant or semigroup code
    assert {target for importer, target, _ in package_imports(modules)
            if importer == "urygrid.isometry"} == {"urygrid.errors", "urygrid.grid"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        urygrid.no_such_name
    with pytest.raises(ImportError):
        exec("from urygrid import no_such_name", {})


ACCEPTANCE_SUITE = os.path.join(os.path.dirname(__file__), "test_acceptance.py")

# registry laws that no acceptance criterion runs, each with its reason
SELFTEST_ONLY = {
    "capped_addition": "selftest only: a sanity check on the grid arithmetic "
                       "every other law stands on, not a claim of the paper",
}


def acceptance_tree():
    with open(ACCEPTANCE_SUITE, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def criteria():
    return [node for node in acceptance_tree().body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]


def law_calls(criterion):
    """The dotted paths after ``laws.`` of the calls a criterion makes
    into the registry module: ``laws.invertibles(...)`` gives
    "invertibles", ``laws._kernels.is_bikatetov(...)`` gives
    "_kernels.is_bikatetov"."""
    paths = set()
    for node in ast.walk(criterion):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id == "laws" and parts:
            paths.add(".".join(reversed(parts)))
    return paths


REGISTERED = {law.__name__ for _, law in laws.LAWS}


def test_every_law_a_criterion_calls_is_registered():
    found = criteria()
    assert len(found) == 12
    for criterion in found:
        calls = law_calls(criterion)
        assert calls and calls <= REGISTERED, (criterion.name, calls)


def test_every_registered_law_runs_in_exactly_one_criterion():
    runs = collections.Counter(name for criterion in criteria()
                               for name in law_calls(criterion))
    assert set(SELFTEST_ONLY) <= REGISTERED
    for name in REGISTERED:
        assert runs[name] == (0 if name in SELFTEST_ONLY else 1), name


def test_the_acceptance_suite_imports_nothing_but_the_registry():
    """A criterion that wrote a law inline would need library code; the
    suite may bind only the registry, and the backend name that picks
    criterion 1's scope."""
    bound = set()
    for node in ast.walk(acceptance_tree()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("urygrid"):
            bound |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {(alias.name, None) for alias in node.names
                      if alias.name.startswith("urygrid")}
    assert bound == {("urygrid", "laws"), ("urygrid", "KERNEL_BACKEND")}


def test_every_guard_refusal_reports_used_and_limit():
    """Each GuardError the package raises says how much its guard counted
    and what the bound was, by keyword, so a caller can read both."""
    sites = 0
    for root, _, files in os.walk(os.path.dirname(urygrid.__file__)):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "GuardError"):
                    sites += 1
                    assert {"used", "limit"} <= {k.arg for k in node.keywords}, \
                        (name, node.lineno)
    # lex_tuples, saturation, iso_group, the pairing-length bound, the word
    # search and the template search
    assert sites == 6


def test_only_the_backend_switch_reads_the_environment():
    """The package reads one environment variable, URYGRID_PURE, in one
    place: no other setting changes what it computes or starts a process."""
    package = os.path.dirname(urygrid.__file__)
    sites, keys = [], []
    for root, _, files in os.walk(package):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            where = os.path.relpath(path, package)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "os":
                    sites += [(where, alias.name) for alias in node.names
                              if "env" in alias.name]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "os" and "env" in node.attr):
                    sites.append((where, node.attr))
                if isinstance(node, ast.Call) and \
                        ast.unparse(node.func) in ("os.environ.get", "os.getenv"):
                    keys.append(ast.literal_eval(node.args[0]))
                elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
                    keys.append(ast.literal_eval(node.slice))
    assert sites == [(os.path.join("_kernels", "__init__.py"), "environ")]
    assert keys == ["URYGRID_PURE"]
