"""Exact grid arithmetic for finite metric amalgamation.

Finite metric spaces with rational grid distances, Katetov one-point
extensions and approximants closed under them, the ordered involutive
semigroup of bi-Katetov matrices under the bounded min-plus product, Graev
seminorms on free-group words, partial-isometry relation words, and the
enumerated Gromov-Hausdorff distance. Every construction is paired with an
independent brute-force route so the structural identities are checked by
exact equality.

Only ``errors`` is imported with the package. Every other export is looked
up in its submodule on first use (PEP 562), so ``import urygrid.spaces``
or one CLI subcommand loads only the modules it needs.
"""

import importlib

from .errors import GuardError, InvariantError, UrygridError, ValidationError

__version__ = "0.1.0"

# export -> (submodule, attribute in it)
_EXPORTS = {"KERNEL_BACKEND": ("_kernels", "BACKEND")}
for _module, _names in (
    ("spaces", "FiniteMetricSpace PartialSpec QuotientResult ValidationReport amalgam "
               "common_grid quotient_pseudometric random_grid_space "
               "shortest_path_completion validate_space"),
    ("katetov", "ApproximantResult InjectivityReport KatetovFunction OnePointExtension "
                "build_approximant homogeneity_check injectivity_check is_katetov "
                "katetov_extension katetov_witness point_function realize_one_point "
                "sup_distance"),
    ("isometry", "iso_group"),
    ("bikatetov", "BiKatetovMatrix act_left act_right characterization_check "
                  "classify_idempotents constant_zero embed_isometry greatest_idempotent "
                  "inner_aut invertible_isometry is_bikatetov_matrix metric_unit product "
                  "product_via_amalgam random_bikatetov routing_idempotent star"),
    ("graev", "WeightedAlphabet enumerate_pairings graev_distance graev_norm "
              "graev_norm_bruteforce graev_sum parse_word reduce_word"),
    ("homog", "OrbitDistance PartialIsometryRelation composition_weight_bound "
              "hausdorff_distance nu_truncated random_partial_isometry relation_alphabet "
              "validate_relation weight word_image word_relates"),
    ("gh", "EnumeratedPair distortion feasible_at gh_distance gh_distance_oracle "
           "realize_in_space"),
    ("relations", "GridFunctionSpace action_graph enumerate_carrier is_equivalence "
                  "isometry_graphs matrix_of_relation relation_of_matrix "
                  "restriction_equivalence"),
    ("grid", "add_capped frac_str half_grid_value"),
):
    _EXPORTS.update((name, (_module, name)) for name in _names.split())
del _module, _names

# submodules reachable as package attributes without importing them first
_SUBMODULES = frozenset(module for module, _ in _EXPORTS.values())

__all__ = ["GuardError", "InvariantError", "UrygridError", "ValidationError", *_EXPORTS]


def __getattr__(name):
    # looked up on every access, never cached here, so a name rebound in its
    # submodule (a monkeypatch, a tracing wrapper) shows through the package
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        return getattr(importlib.import_module("." + module, __name__), attr)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
