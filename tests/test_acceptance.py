"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its observed counts. Every identity is checked with exact integer
equality; there are no tolerances anywhere. The laws live in urygrid.laws,
which ``urygrid selftest`` runs at quick scale; here they run at acceptance
scale, and each test pins the seeded counts its PASS line reports.

Criterion 1 enumerates all signed words up to a length bound against the
explicit pairing enumeration. The full stated population (twenty alphabets,
every word to length eight, about 3.8e8 words and ~1e11 elementary pairing
steps) cannot run in the advertised half minute on any hardware, so the
default run covers both stated boundaries separately: every alphabet
exhaustively to length six, plus the first alphabet exhaustively to length
eight. Set URYGRID_ACCEPTANCE_FULL=1 for the literal full product (takes on
the order of twenty minutes single-threaded; URYGRID_WORKERS parallelizes).
"""

import os
import random
import re

from urygrid import laws
from urygrid.bikatetov import (constant_zero, is_bikatetov_matrix,
                               metric_unit, product, random_bikatetov,
                               random_bikatetov_below, star)

ACCEPTANCE = laws.ACCEPTANCE


def report(num, text, *counts):
    """Print the PASS line after checking that each seeded count appears in
    it as a whole number."""
    for count in counts:
        assert re.search(rf"(?<![\d,]){count}(?![\d,])", text), (count, text)
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_01_graev_dp_equals_bruteforce():
    from urygrid import KERNEL_BACKEND
    if os.environ.get("URYGRID_ACCEPTANCE_FULL") == "1":
        scope = "full"
    elif KERNEL_BACKEND == "compiled":
        scope = "default"
    else:
        scope = "pure-fallback"
    report(1, laws.graev_dp_vs_enumeration(scope), "20")


def test_02_graev_seminorm_laws():
    report(2, laws.graev_seminorm_laws(ACCEPTANCE), "10000")


def test_03_bounded_minplus_algebra():
    per_law = 10_000
    rng = random.Random(43)
    for _ in range(per_law):
        space = laws.random_space(rng, 4, 8)
        f = random_bikatetov(space, rng)
        g = random_bikatetov(space, rng)
        h = random_bikatetov(space, rng)
        assert product(product(f, g), h) == product(f, product(g, h))
    for _ in range(per_law):
        space = laws.random_space(rng, 4, 8)
        f2 = random_bikatetov(space, rng)
        g2 = random_bikatetov(space, rng)
        f1 = random_bikatetov_below(f2, rng)
        g1 = random_bikatetov_below(g2, rng)
        assert product(f1, g1) <= product(f2, g2)
    for _ in range(per_law):
        space = laws.random_space(rng, 4, 8)
        f = random_bikatetov(space, rng)
        g = random_bikatetov(space, rng)
        fg = product(f, g)  # built unvalidated: closure is checked here
        assert is_bikatetov_matrix(space, fg.entries)
        d = metric_unit(space)
        one = constant_zero(space)
        assert product(f, d) == f and product(d, f) == f
        assert product(f, one) == one and product(one, f) == one
        assert star(product(f, g)) == product(star(g), star(f))
        assert star(star(f)) == f
    report(3, f"associativity, order, closure, unit/zero and involution laws "
              f"on {per_law} random samples each; "
              + laws.membership_characterization(ACCEPTANCE), "10000", "256")


def test_04_idempotent_classification():
    report(4, laws.idempotent_classification(ACCEPTANCE))


def test_05_invertibles_exhaustive():
    report(5, laws.invertibles(ACCEPTANCE), "26")


def test_06_invariant_idempotents():
    report(6, laws.invariant_idempotents(ACCEPTANCE))


def test_07_amalgam_oracle():
    report(7, laws.amalgam_product_oracle(ACCEPTANCE), "1000")


def test_08_gh_formula_equals_oracle():
    report(8, laws.gh_formula_vs_oracle(ACCEPTANCE), "1000")


def test_09_orbit_distance_exactness():
    report(9, laws.orbit_distance_exact(ACCEPTANCE), "121", "1000")


def test_10_composition_weight_bounds():
    report(10, laws.weight_bounds(ACCEPTANCE), "23642", "10000")


def test_11_function_space_round_trip():
    report(11, laws.function_space_roundtrip(ACCEPTANCE), "262")


def test_12_approximant_soundness():
    report(12, laws.approximant_closure(ACCEPTANCE), "12", "432")
