"""The structural laws behind the paper's claims, each written once.

``urygrid selftest`` runs every law at QUICK scale and the acceptance suite
runs them at ACCEPTANCE scale; only the sizes differ, never the checks.
Each law compares two independent routes with exact integer equality,
raises AssertionError on a counterexample and otherwise returns the detail
text of its PASS line. The exhaustive Graev sweep takes one of
GRAEV_SWEEP_SCOPES as its scale, so the acceptance suite can pick the scope
the live backend affords.

The random-object helpers are the one copy the test suite draws from too.
"""

from __future__ import annotations

import os
import random

from . import _kernels, sweep
from .bikatetov import (characterization_check, classify_idempotents,
                        constant_zero, embed_isometry, enumerate_bikatetov,
                        inner_aut, invertible_isometry, is_bikatetov_matrix,
                        metric_unit, product, product_via_amalgam,
                        random_bikatetov, random_bikatetov_below,
                        routing_idempotent, star)
from .gh import EnumeratedPair, gh_distance, gh_distance_oracle
from .graev import (WeightedAlphabet, concat, graev_norm,
                    graev_norm_bruteforce, inverse_word, reduce_word)
from .grid import add_capped
from .homog import (PartialIsometryRelation, compose, composition_weight_bound,
                    invert, nu_truncated, random_partial_isometry,
                    relation_alphabet, word_image)
from .isometry import iso_group
from .katetov import build_approximant, homogeneity_check, injectivity_check
from .relations import (action_graph, enumerate_carrier, matrix_of_relation,
                        relation_of_matrix, restriction_equivalence)
from .spaces import FiniteMetricSpace, random_grid_space

QUICK = "quick"
ACCEPTANCE = "acceptance"

# scope -> (alphabets swept, length bound on the first, on the others)
GRAEV_SWEEP_SCOPES = {QUICK: (2, 4, 4), "pure-fallback": (20, 6, 5),
                      "default": (20, 8, 6), "full": (20, 8, 8)}

TWO_POINT = FiniteMetricSpace(("a", "b"), 2, ((0, 1), (1, 0)))
TRIANGLE = FiniteMetricSpace(("a", "b", "c"), 2, ((0, 1, 1), (1, 0, 1), (1, 1, 0)))


def random_weights(space, rng):
    """Non-expanding non-negative weights: clip random values pairwise."""
    k = [rng.randint(0, space.denominator) for _ in range(space.n)]
    for _ in range(space.n):
        for i in range(space.n):
            for j in range(space.n):
                if k[i] > k[j] + space.dist[i][j]:
                    k[i] = k[j] + space.dist[i][j]
    return tuple(k)


def random_word(rng, nletters, max_len):
    return tuple((rng.randrange(nletters), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len)))


def random_space(rng, max_n, max_q):
    return random_grid_space(rng.randint(1, max_n), rng.randint(1, max_q),
                             rng.randrange(10 ** 9))


def acceptance_alphabet(i):
    """The i-th of the twenty random 4-letter weighted alphabets at q=12."""
    space = random_grid_space(4, 12, 7000 + i)
    return WeightedAlphabet.from_space(space, random_weights(space, random.Random(8000 + i)))


def capped_addition(scale):
    q = 5
    for a in range(q + 1):
        for b in range(q + 1):
            assert add_capped(a, b, q) == add_capped(b, a, q)
            assert add_capped(0, a, q) == a
            for c in range(q + 1):
                assert add_capped(add_capped(a, b, q), c, q) \
                    == add_capped(a, add_capped(b, c, q), q)
    return f"capped addition is commutative and associative with unit 0 on [0, {q}]"


def membership_characterization(scale):
    space = FiniteMetricSpace(("a", "b"), 3, ((0, 2), (2, 0)))
    agree = 0
    for code in range(4 ** 4):
        vals = [code // 4 ** t % 4 for t in range(4)]
        entries = ((vals[0], vals[1]), (vals[2], vals[3]))
        algebraic = characterization_check(space, entries)
        assert algebraic == is_bikatetov_matrix(space, entries), entries
        assert algebraic == _kernels.is_bikatetov(2, vals, space.flat(), 3), entries
        agree += 1
    return (f"membership characterization agrees with the definition on all "
            f"{agree} matrices at n=2, q=3")


def semigroup_laws(scale):
    per_law = 10_000 if scale == ACCEPTANCE else 300
    rng = random.Random(43)
    for _ in range(per_law):
        space = random_space(rng, 4, 8)
        f = random_bikatetov(space, rng)
        g = random_bikatetov(space, rng)
        h = random_bikatetov(space, rng)
        assert product(product(f, g), h) == product(f, product(g, h))
    for _ in range(per_law):
        space = random_space(rng, 4, 8)
        f2 = random_bikatetov(space, rng)
        g2 = random_bikatetov(space, rng)
        f1 = random_bikatetov_below(f2, rng)
        g1 = random_bikatetov_below(g2, rng)
        assert product(f1, g1) <= product(f2, g2)
    for _ in range(per_law):
        space = random_space(rng, 4, 8)
        f = random_bikatetov(space, rng)
        g = random_bikatetov(space, rng)
        fg = product(f, g)  # built unvalidated: closure is checked here
        assert is_bikatetov_matrix(space, fg.entries)
        d = metric_unit(space)
        one = constant_zero(space)
        assert product(f, d) == f and product(d, f) == f
        assert product(f, one) == one and product(one, f) == one
        assert star(fg) == product(star(g), star(f))
        assert star(star(f)) == f
    return (f"associativity, order, closure, unit/zero and involution laws "
            f"on {per_law} random samples each")


def idempotent_classification(scale):
    lines = []
    sizes = [(n, q) for n in (1, 2, 3) for q in ((2, 4) if scale == ACCEPTANCE else (2,))]
    for n, q in sizes + [(4, 3), (5, 2)] if scale == ACCEPTANCE else sizes:
        space = random_grid_space(n, q, 1234 + 10 * n + q)
        found = classify_idempotents(space)
        assert len(found) == 2 ** n, (n, q, len(found))
        assert len({sub for _, sub in found}) == 2 ** n
        lines.append(f"n={n},q={q}:{len(found)}")
    return ("grid idempotents above the metric are exactly the 2^n subset "
            "routings (" + " ".join(lines) + ")")


def invertibles(scale):
    space = TWO_POINT
    unit = metric_unit(space)
    elements = enumerate_bikatetov(space)
    with_inverse = set()
    for f in elements:
        if any(product(f, g) == unit and product(g, f) == unit for g in elements):
            with_inverse.add(f.entries)
            assert star(f) == product(star(f), unit)
        assert (invertible_isometry(f) is not None) == (f.entries in with_inverse)
    embedded = {embed_isometry(space, p).entries for p in iso_group(space)}
    assert with_inverse == embedded and len(with_inverse) == 2
    return (f"among all {len(elements)} grid elements at n=2, q=2 the "
            f"invertibles are exactly the 2 embedded isometries")


def invariant_idempotents(scale):
    spaces = [TWO_POINT, FiniteMetricSpace(("a", "b"), 4, ((0, 3), (3, 0))),
              TRIANGLE, FiniteMetricSpace(("a", "b", "c"), 4,
                                          ((0, 2, 2), (2, 0, 2), (2, 2, 0)))]
    # squares with sides s and diagonals d, under a group of order 8
    squares = [FiniteMetricSpace(tuple("abcd"), q, ((0, s, d, s), (s, 0, s, d),
                                                    (d, s, 0, s), (s, d, s, 0)))
               for q, s, d in ((2, 1, 2), (3, 2, 3))]
    for space in spaces + squares if scale == ACCEPTANCE else spaces[::2]:
        group = iso_group(space)
        fixed = [m for m, _ in classify_idempotents(space)
                 if all(inner_aut(g, m) == m for g in group)]
        assert len(fixed) == 2
        assert metric_unit(space) in fixed and constant_zero(space) in fixed
    return ("on point-transitive spaces the only conjugation-invariant "
            "idempotents above the metric are the metric and the constant")


def amalgam_product_oracle(scale):
    rng = random.Random(44)
    trials = 1000 if scale == ACCEPTANCE else 40
    for _ in range(trials):
        space = random_space(rng, 4, 8)
        p = random_bikatetov(space, rng)
        q_ = random_bikatetov(space, rng)
        assert product_via_amalgam(p, q_) == product(p, q_)
    return (f"three-copy amalgam block equals the min-plus product on "
            f"{trials} random pairs, exact")


def graev_dp_vs_enumeration(scale):
    # two letters at distance 3, weights 4 and 6, q = 10
    xy = WeightedAlphabet(("x", "y"), 10, ((0, 3), (3, 0)), (4, 6))
    w = ((0, 1), (1, -1))  # x y^-1
    assert graev_norm(w, xy) == 3
    assert graev_norm_bruteforce(w, xy) == 3
    assert graev_norm(((0, 1),), xy) == 4
    assert graev_norm((), xy) == 0
    count, boundary_len, rest_len = GRAEV_SWEEP_SCOPES[scale]
    lengths = [boundary_len] + [rest_len] * (count - 1)
    jobs = [(4, alphabet.flat(), list(alphabet.weights), max_len)
            for alphabet, max_len in zip(map(acceptance_alphabet, range(count)), lengths)]
    # only the full population is worth a process per CPU
    workers = (os.cpu_count() or 1) if scale == "full" else 1
    total = 0
    for i, (max_len, (checked, mismatches)) in enumerate(
            zip(lengths, sweep.graev_agree_each(jobs, workers))):
        assert mismatches == 0, f"alphabet {i}: {mismatches} mismatches"
        assert checked == sum(8 ** k for k in range(max_len + 1))
        total += checked
    return (f"dynamic program equals pairing enumeration on {total:,} words "
            f"over {count} alphabets ({scale} scope)")


def graev_seminorm_laws(scale):
    per_law, longest = (10_000, 10) if scale == ACCEPTANCE else (400, 7)
    rng = random.Random(42)
    alphabets = [acceptance_alphabet(i) for i in range(5)]
    for a in alphabets:
        assert graev_norm((), a) == 0
    for _ in range(per_law):
        a = alphabets[rng.randrange(5)]
        w = random_word(rng, 4, longest)
        assert graev_norm(w, a) == graev_norm(reduce_word(w), a)
    for _ in range(per_law):
        a = alphabets[rng.randrange(5)]
        w = random_word(rng, 4, longest)
        assert graev_norm(w, a) == graev_norm(inverse_word(w), a)
    for _ in range(per_law):
        a = alphabets[rng.randrange(5)]
        u = random_word(rng, 4, longest - 2)
        v = random_word(rng, 4, longest - 2)
        assert graev_norm(reduce_word(concat(u, v)), a) \
            <= graev_norm(u, a) + graev_norm(v, a)
    for _ in range(per_law):
        a = alphabets[rng.randrange(5)]
        u = random_word(rng, 4, longest - 4)
        v = random_word(rng, 4, longest - 3)
        conj = reduce_word(concat(concat(u, v), inverse_word(u)))
        assert graev_norm(conj, a) == graev_norm(v, a)
    return (f"empty-word, inversion, subadditivity, conjugation and "
            f"reduction laws on {per_law} random words each, exact")


def orbit_distance_exact(scale):
    spaces, related = (10, 1000) if scale == ACCEPTANCE else (2, 50)
    rng = random.Random(46)
    pairs_checked = 0
    for i in range(spaces):
        space = random_grid_space(2 + i % 4, 5 + i, 4600 + i)
        stock = [PartialIsometryRelation(space, ((a, b),))
                 for a in space.points for b in space.points]
        for a in space.points:
            for b in space.points:
                for max_len in (1, 2, 3):
                    got = nu_truncated(stock, a, b, max_len)
                    assert got.value == space.distance(a, b), (i, a, b, max_len)
                pairs_checked += 1
    norm_checked = 0
    while norm_checked < related:
        space = random_space(rng, 5, 6)
        if space.n < 2:
            continue
        rels = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            r = random_partial_isometry(space, rng)
            if r.pairs not in seen:
                seen.add(r.pairs)
                rels.append(r)
        w = random_word(rng, len(rels), 5)
        img = word_image(rels, w)
        if not img:
            continue
        norm = graev_norm(w, relation_alphabet(rels))
        for (x, y) in img:
            assert norm >= space.dist[x][y]
            norm_checked += 1
    return (f"singleton-stock orbit distance equals the base distance for "
            f"{pairs_checked} point pairs at every length bound; word "
            f"seminorm dominates the moved distance on {norm_checked} "
            f"related pairs")


def weight_bounds(scale):
    rng = random.Random(47)
    trials, max_n, max_q = (10_000, 5, 8) if scale == ACCEPTANCE else (400, 4, 6)
    admissible = 0
    for _ in range(trials):
        space = random_space(rng, max_n, max_q)
        rels = [random_partial_isometry(space, rng) for _ in range(3)]
        e, dl = (rng.choice((1, -1)) for _ in range(2))
        for case, rr, ss in ((1, rels[:2], [e]), (2, rels, [e, dl]),
                             (3, rels[:2], [e, dl])):
            verdict = composition_weight_bound(case, rr, ss)
            if verdict is not None:
                assert verdict, (case, rr, ss)
                admissible += 1
    return (f"weight bounds for short compositions hold on {admissible} "
            f"admissible tuples out of {trials} sampled triples, zero "
            f"violations")


def function_space_roundtrip(scale):
    count = 0
    for q in ((2, 3) if scale == ACCEPTANCE else (2,)):
        for d in range(1, q + 1):
            space = FiniteMetricSpace(("a", "b"), q, ((0, d), (d, 0)))
            carrier = enumerate_carrier(space)
            for f in enumerate_bikatetov(space):
                assert matrix_of_relation(carrier, relation_of_matrix(carrier, f)) \
                    == f.entries
                count += 1
    for space in (TWO_POINT, TRIANGLE) if scale == ACCEPTANCE else (TWO_POINT,):
        carrier = enumerate_carrier(space)
        group = iso_group(space)
        for g in group:
            jg = action_graph(carrier, g)
            assert matrix_of_relation(carrier, jg) == embed_isometry(space, g).entries
            inv = tuple(sorted(range(space.n), key=g.__getitem__))
            assert invert(jg) == action_graph(carrier, inv)
            for h in group:
                gh = tuple(g[h[i]] for i in range(space.n))
                assert compose(jg, action_graph(carrier, h)) == action_graph(carrier, gh)
    carrier = enumerate_carrier(TWO_POINT)
    assert carrier.size == 7
    for subset in ((), ("a",), ("b",), ("a", "b")):
        assert relation_of_matrix(carrier, routing_idempotent(TWO_POINT, subset)) \
            == restriction_equivalence(carrier, subset)
    return (f"matrix/relation round trip exact on {count} matrices; graph "
            f"embedding is a monoid-with-involution morphism matching the "
            f"matrix embedding; routing idempotents map to restriction "
            f"equivalences")


def gh_formula_vs_oracle(scale):
    rng = random.Random(45)
    trials, max_n, max_q = (1000, 6, 20) if scale == ACCEPTANCE else (60, 4, 10)
    for _ in range(trials):
        n = rng.randint(1, max_n)
        q = rng.randint(2, max_q)
        x = random_grid_space(n, q, rng.randrange(10 ** 9))
        y = random_grid_space(n, q, rng.randrange(10 ** 9))
        y = FiniteMetricSpace(tuple(f"y{i}" for i in range(n)), q, y.dist)
        inst = EnumeratedPair(x, y)
        assert gh_distance(inst) == gh_distance_oracle(inst)
    return (f"half-distortion formula equals the feasibility-scan oracle "
            f"on {trials} random enumerated instances, exact")


def approximant_closure(scale):
    subset, cap = (2, 64) if scale == ACCEPTANCE else (1, 16)
    result = build_approximant(FiniteMetricSpace(("a",), 2, ((0,),)), subset, 2, cap)
    assert result.status == "closed"
    inj = injectivity_check(result.space, subset)
    assert inj.ok, f"{len(inj.unrealized)} unrealized profiles"
    hom = homogeneity_check(result.space, 1, max_points=64)
    assert hom.ok, f"{len(hom.non_extendable)} non-extendable point maps"
    return (f"1-point seed closes at {result.space.n} points "
            f"({result.strategy} strategy); injectivity clean over "
            f"{inj.checked} profiles; every single-point map extends "
            f"to a global isometry")


# selftest name -> law, in the order selftest prints them
LAWS = [
    ("capped-addition", capped_addition),
    ("membership-characterization", membership_characterization),
    ("semigroup-laws", semigroup_laws),
    ("idempotent-classification", idempotent_classification),
    ("invertibles", invertibles),
    ("invariant-idempotents", invariant_idempotents),
    ("amalgam-product-oracle", amalgam_product_oracle),
    ("graev-dp-vs-enumeration", graev_dp_vs_enumeration),
    ("graev-seminorm-laws", graev_seminorm_laws),
    ("orbit-distance-exact", orbit_distance_exact),
    ("weight-bounds", weight_bounds),
    ("function-space-roundtrip", function_space_roundtrip),
    ("gh-formula-vs-oracle", gh_formula_vs_oracle),
    ("approximant-closure", approximant_closure),
]
