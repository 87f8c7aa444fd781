"""Per-layer spans recorded from outside the library.

The benchmark never edits ``urygrid``: it wraps public functions and
constructors from here, rebinding each name in every ``urygrid`` module
namespace that holds the original object, and restores them all on exit.
Kernel functions are not rebound inside the kernel module that defines
them, so the calls a kernel makes to itself stay unwrapped (a compiled
kernel's internal calls are invisible anyway); counts are taken at layer
boundaries, never inside kernel loops.

Spans are aggregated as they close (calls, inclusive and self seconds per
name, plus inclusive seconds per parent/child pair), which keeps memory flat
however many tiny calls a workload makes.
"""

from __future__ import annotations

import functools
import sys
import time

_KERNEL_DEFINERS = ("urygrid._kernels._fallback", "urygrid._kernels._ext")

# (span name, module, attribute, class or None, result counter or None).
# A class entry wraps that class's method; a module entry wraps the function
# bound under that attribute.
TARGETS = [
    ("kernels.minplus_product", "urygrid._kernels", "minplus_product", None, None),
    ("kernels.floyd_warshall_capped", "urygrid._kernels", "floyd_warshall_capped", None, None),
    ("kernels.is_bikatetov", "urygrid._kernels", "is_bikatetov", None, None),
    ("kernels.graev_norm_dp", "urygrid._kernels", "graev_norm_dp", None, None),
    ("kernels.graev_norm_bruteforce", "urygrid._kernels", "graev_norm_bruteforce", None, None),
    ("kernels.graev_agree_exhaustive", "urygrid._kernels", "graev_agree_exhaustive", None,
     ("words", lambda r: r[0])),
    ("sweep.graev_agree_exhaustive", "urygrid.sweep", "graev_agree_exhaustive", None, None),
    ("bikatetov.product", "urygrid.bikatetov", "product", None, None),
    ("bikatetov.BiKatetovMatrix", "urygrid.bikatetov", "__post_init__", "BiKatetovMatrix", None),
    ("bikatetov.random_bikatetov", "urygrid.bikatetov", "random_bikatetov", None, None),
    ("bikatetov.product_via_amalgam", "urygrid.bikatetov", "product_via_amalgam", None, None),
    ("graev.graev_norm", "urygrid.graev", "graev_norm", None, None),
    ("graev.WeightedAlphabet", "urygrid.graev", "__post_init__", "WeightedAlphabet", None),
    ("homog.nu_truncated", "urygrid.homog", "nu_truncated", None,
     ("words_searched", lambda r: r.words_searched)),
    ("homog.compose", "urygrid.homog", "compose", None, None),
    ("homog.relation_alphabet", "urygrid.homog", "relation_alphabet", None, None),
    ("gh.gh_distance", "urygrid.gh", "gh_distance", None, None),
    ("gh.gh_distance_oracle", "urygrid.gh", "gh_distance_oracle", None, None),
    ("gh.feasible_at", "urygrid.gh", "feasible_at", None, None),
    ("spaces.validate_space", "urygrid.spaces", "validate_space", None, None),
    ("spaces.with_point", "urygrid.spaces", "with_point", "FiniteMetricSpace", None),
    ("spaces.shortest_path_completion", "urygrid.spaces", "shortest_path_completion", None, None),
    ("spaces.random_grid_space", "urygrid.spaces", "random_grid_space", None, None),
    ("katetov.build_approximant", "urygrid.katetov", "build_approximant", None,
     ("points_added", lambda r: r.added)),
    ("katetov.find_transitive_template", "urygrid.katetov", "find_transitive_template", None,
     ("found", lambda r: r is not None)),
    ("katetov.injectivity_check", "urygrid.katetov", "injectivity_check", None,
     ("profiles_checked", lambda r: r.checked)),
    ("katetov.homogeneity_check", "urygrid.katetov", "homogeneity_check", None, None),
    ("katetov.iso_group", "urygrid.katetov", "iso_group", None, None),
    ("fileio.canonical_dumps", "urygrid.fileio", "canonical_dumps", None, None),
    ("relations.enumerate_carrier", "urygrid.relations", "enumerate_carrier", None, None),
    ("relations.relation_of_matrix", "urygrid.relations", "relation_of_matrix", None, None),
]

class Tracer:
    """Span aggregates for one traced phase."""

    def __init__(self):
        self.stack: list[list] = []          # [name, child seconds]
        self.calls: dict[str, int] = {}
        self.nested: dict[str, int] = {}     # calls whose parent has the same name
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.pair_incl: dict[tuple[str, str], float] = {}
        self.pair_calls: dict[tuple[str, str], int] = {}
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name, fn, counter=None):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                self._close(name, dt, frame[1], parent[0] if parent else None)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](result)
            return result

        return traced

    def _close(self, name, dt, child, parent):
        self.calls[name] = self.calls.get(name, 0) + 1
        if parent == name:
            self.nested[name] = self.nested.get(name, 0) + 1
        self.incl[name] = self.incl.get(name, 0.0) + dt
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - child
        if parent is not None:
            key = (parent, name)
            self.pair_incl[key] = self.pair_incl.get(key, 0.0) + dt
            self.pair_calls[key] = self.pair_calls.get(key, 0) + 1

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every target that exists in the loaded ``urygrid``."""
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == "urygrid" or k.startswith("urygrid."))}
        for name, modname, attr, cls, counter in TARGETS:
            mod = mods.get(modname)
            if mod is None:
                continue
            if cls is not None:
                klass = getattr(mod, cls)
                self._set(klass, attr, self.wrap(name, klass.__dict__[attr], counter))
                continue
            self._rebind(mods, getattr(mod, attr), self.wrap(name, getattr(mod, attr), counter))
        # every fileio reader is one layer (nested reads, such as load_space
        # calling load_json, count once, at the outermost call), and every
        # CLI subcommand handler is one
        for modname, prefix, name in (("urygrid.fileio", "load_", "fileio.load"),
                                      ("urygrid.cli", "cmd_", "cli.command")):
            mod = mods.get(modname)
            if mod is None:
                continue
            for attr, orig in list(vars(mod).items()):
                if attr.startswith(prefix) and callable(orig):
                    self._rebind(mods, orig, self.wrap(name, orig))

    def _rebind(self, mods, orig, wrapper):
        for modname, mod in mods.items():
            if modname in _KERNEL_DEFINERS:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-JSON aggregates, mergeable across processes."""
        return {"calls": dict(self.calls), "nested": dict(self.nested),
                "incl": dict(self.incl), "self": dict(self.self_s),
                "pair_incl": {f"{p}>{c}": v for (p, c), v in self.pair_incl.items()},
                "pair_calls": {f"{p}>{c}": v for (p, c), v in self.pair_calls.items()},
                "counters": dict(self.counters)}


def merge(total: dict, part: dict) -> dict:
    for key, table in part.items():
        dst = total.setdefault(key, {})
        for k, v in table.items():
            dst[k] = dst.get(k, 0) + v
    return total


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics, in the order BENCHMARK.json lists them. Every one is
# reported on every workload (0 where the workload never reaches the layer),
# normalised per op so that runs of different lengths compare.
PER_LAYER = [
    ("kernels.graev_norm_dp.calls", "calls/op"),
    ("kernels.graev_norm_dp.self_ms", "ms/op"),
    ("kernels.graev_norm_bruteforce.calls", "calls/op"),
    ("kernels.graev_norm_bruteforce.self_ms", "ms/op"),
    ("kernels.graev_agree_exhaustive.words", "words/op"),
    ("kernels.graev_agree_exhaustive.self_ms", "ms/op"),
    ("kernels.graev_agree_exhaustive.us_per_word", "us/word"),
    ("sweep.graev_agree_exhaustive.self_ms", "ms/op"),
    ("kernels.minplus_product.calls", "calls/op"),
    ("kernels.minplus_product.self_ms", "ms/op"),
    ("kernels.floyd_warshall_capped.calls", "calls/op"),
    ("kernels.floyd_warshall_capped.self_ms", "ms/op"),
    ("kernels.is_bikatetov.calls", "calls/op"),
    ("kernels.is_bikatetov.self_ms", "ms/op"),
    ("bikatetov.product.calls", "calls/op"),
    ("bikatetov.product.self_ms", "ms/op"),
    ("bikatetov.product.wrapper_ratio", "ratio"),
    ("bikatetov.BiKatetovMatrix.constructs", "calls/op"),
    ("bikatetov.BiKatetovMatrix.self_ms", "ms/op"),
    ("bikatetov.random_bikatetov.calls", "calls/op"),
    ("bikatetov.random_bikatetov.self_ms", "ms/op"),
    ("bikatetov.product_via_amalgam.self_ms", "ms/op"),
    ("graev.graev_norm.calls", "calls/op"),
    ("graev.graev_norm.self_ms", "ms/op"),
    ("graev.graev_norm.wrapper_ratio", "ratio"),
    ("graev.WeightedAlphabet.self_ms", "ms/op"),
    ("homog.nu_truncated.calls", "calls/op"),
    ("homog.nu_truncated.self_ms", "ms/op"),
    ("homog.nu_truncated.words_searched", "words/op"),
    ("homog.compose.calls", "calls/op"),
    ("homog.compose.self_ms", "ms/op"),
    ("homog.relation_alphabet.calls", "calls/op"),
    ("homog.relation_alphabet.self_ms", "ms/op"),
    ("gh.gh_distance.self_ms", "ms/op"),
    ("gh.gh_distance_oracle.self_ms", "ms/op"),
    ("gh.oracle.scans_per_call", "scans/call"),
    ("spaces.validate_space.calls", "calls/op"),
    ("spaces.validate_space.self_ms", "ms/op"),
    ("spaces.with_point.calls", "calls/op"),
    ("spaces.shortest_path_completion.self_ms", "ms/op"),
    ("spaces.random_grid_space.self_ms", "ms/op"),
    ("katetov.build_approximant.self_ms", "ms/op"),
    ("katetov.build_approximant.points_added", "points/op"),
    ("katetov.build_approximant.ms_per_point", "ms/point"),
    ("katetov.find_transitive_template.calls", "calls/op"),
    ("katetov.find_transitive_template.self_ms", "ms/op"),
    ("katetov.find_transitive_template.found_ratio", "ratio"),
    ("katetov.injectivity_check.self_ms", "ms/op"),
    ("katetov.injectivity_check.profiles_checked", "profiles/op"),
    ("katetov.homogeneity_check.self_ms", "ms/op"),
    ("katetov.iso_group.self_ms", "ms/op"),
    ("cli.process_ms", "ms/op"),
    ("cli.import_ms", "ms/op"),
    ("cli.interpreter_ms", "ms/op"),
    ("cli.compute_ms", "ms/op"),
    ("fileio.load.calls", "calls/op"),
    ("fileio.load.self_ms", "ms/op"),
    ("fileio.canonical_dumps.self_ms", "ms/op"),
    ("relations.enumerate_carrier.self_ms", "ms/op"),
    ("relations.relation_of_matrix.self_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(agg: dict, ops: int, extra: dict) -> dict:
    """Turn merged span aggregates into the PER_LAYER values.

    ``extra`` carries what only the caller measured: the CLI child's
    process, import and in-process seconds, the trace overhead ratio, and
    the speed-probe scale applied to every time.
    """
    calls = agg.get("calls", {})
    incl = agg.get("incl", {})
    self_s = agg.get("self", {})
    pair_incl = agg.get("pair_incl", {})
    pair_calls = agg.get("pair_calls", {})
    counters = agg.get("counters", {})
    per_op = 1.0 / ops if ops else 0.0
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "constructs"):
            value = calls.get(span, 0) * per_op
        elif field == "self_ms":
            value = self_s.get(span, 0.0) * 1e3 * per_op
        else:
            continue
        out[name] = value
    out["fileio.load.calls"] = (calls.get("fileio.load", 0)
                                - agg.get("nested", {}).get("fileio.load", 0)) * per_op
    words = counters.get("kernels.graev_agree_exhaustive.words", 0)
    out["kernels.graev_agree_exhaustive.words"] = words * per_op
    out["kernels.graev_agree_exhaustive.us_per_word"] = _ratio(
        incl.get("kernels.graev_agree_exhaustive", 0.0) * 1e6, words)
    out["bikatetov.product.wrapper_ratio"] = _ratio(
        incl.get("bikatetov.product", 0.0),
        pair_incl.get("bikatetov.product>kernels.minplus_product", 0.0))
    out["graev.graev_norm.wrapper_ratio"] = _ratio(
        incl.get("graev.graev_norm", 0.0),
        pair_incl.get("graev.graev_norm>kernels.graev_norm_dp", 0.0))
    out["homog.nu_truncated.words_searched"] = \
        counters.get("homog.nu_truncated.words_searched", 0) * per_op
    out["gh.oracle.scans_per_call"] = _ratio(
        pair_calls.get("gh.gh_distance_oracle>gh.feasible_at", 0),
        calls.get("gh.gh_distance_oracle", 0))
    added = counters.get("katetov.build_approximant.points_added", 0)
    out["katetov.build_approximant.points_added"] = added * per_op
    out["katetov.build_approximant.ms_per_point"] = _ratio(
        incl.get("katetov.build_approximant", 0.0) * 1e3, added)
    out["katetov.find_transitive_template.found_ratio"] = _ratio(
        counters.get("katetov.find_transitive_template.found", 0),
        calls.get("katetov.find_transitive_template", 0))
    out["katetov.injectivity_check.profiles_checked"] = \
        counters.get("katetov.injectivity_check.profiles_checked", 0) * per_op
    command = incl.get("cli.command", 0.0)
    loads = sum(v for k, v in pair_incl.items()
                if k.startswith("cli.command>fileio.load"))
    dumps = pair_incl.get("cli.command>fileio.canonical_dumps", 0.0)
    out["cli.compute_ms"] = (command - loads - dumps) * 1e3 * per_op
    out["cli.process_ms"] = extra.get("process_s", 0.0) * 1e3 * per_op
    out["cli.import_ms"] = extra.get("import_s", 0.0) * 1e3 * per_op
    out["cli.interpreter_ms"] = (extra.get("process_s", 0.0)
                                 - extra.get("inproc_s", 0.0)) * 1e3 * per_op
    out["trace.overhead_ratio"] = extra.get("overhead_ratio", 0.0)
    scale = extra.get("speed_scale", 1.0)
    for name, unit in PER_LAYER:
        if unit.startswith(("ms", "us")):
            out[name] *= scale
    return out
