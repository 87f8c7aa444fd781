"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its observed counts. Every identity is checked with exact integer
equality; there are no tolerances anywhere. Every check lives in the law
registry, urygrid.laws, which ``urygrid selftest`` runs at quick scale. A
criterion here only runs its laws at acceptance scale and pins the seeded
counts its PASS line reports; it calls no other library code, and
tests/test_package.py checks that by reading this file.

Criterion 1 enumerates all signed words up to a length bound against the
explicit pairing enumeration. The full stated population (twenty alphabets,
every word to length eight, about 3.8e8 words and ~1e11 elementary pairing
steps) cannot run in the advertised half minute on any hardware, so the
default run covers both stated boundaries separately: every alphabet
exhaustively to length six, plus the first alphabet exhaustively to length
eight. Set URYGRID_ACCEPTANCE_FULL=1 for the literal full product: on a
shared 2-vCPU machine one alphabet to length eight took 52-69 s pure and
64-73 s compiled, about 17-24 minutes for the twenty one after another; the
law runs the alphabets on one process per CPU at that scope only, and the
whole product took 9.7-10.7 minutes on two CPUs, pure.
"""

import os
import re

from urygrid import laws

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
    report(3, laws.semigroup_laws(ACCEPTANCE) + "; "
           + laws.membership_characterization(ACCEPTANCE), "10000", "256")


def test_04_idempotent_classification():
    report(4, laws.idempotent_classification(ACCEPTANCE), "16", "32")


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
