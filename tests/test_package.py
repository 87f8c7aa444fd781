"""The package's public surface: every name the package exports, resolved
on first use from the submodule that defines it."""

import importlib

import pytest

import urygrid

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


@pytest.mark.parametrize("module", ["_kernels", "spaces", "katetov", "bikatetov", "graev",
                                    "homog", "gh", "relations", "grid"])
def test_submodules_resolve_as_attributes(module):
    assert urygrid.__getattr__(module) is importlib.import_module("urygrid." + module)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        urygrid.no_such_name
    with pytest.raises(ImportError):
        exec("from urygrid import no_such_name", {})
