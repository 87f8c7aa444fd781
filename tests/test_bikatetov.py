import hashlib
import random

import pytest

from urygrid import _kernels
from urygrid.bikatetov import (BiKatetovMatrix, _gibbs, act_left, act_right,
                               bikatetov_witness,
                               characterization_check, classify_idempotents,
                               constant_zero, embed_isometry,
                               enumerate_bikatetov, greatest_idempotent,
                               inner_aut, invertible_isometry,
                               is_bikatetov_matrix, metric_unit, product,
                               product_via_amalgam, random_bikatetov,
                               random_bikatetov_below,
                               routing_idempotent, star)
from urygrid.errors import InvariantError, ValidationError
from urygrid.grid import katetov_bounds
from urygrid.isometry import iso_group
from urygrid.spaces import FiniteMetricSpace, random_grid_space, validate_space

from conftest import random_matrix_pair, with_doubled_point


class TestConstruction:
    def test_rejects_non_bikatetov(self, two_point_q4):
        with pytest.raises(ValidationError):
            BiKatetovMatrix(two_point_q4, ((0, 0), (0, 0)))

    def test_rejects_bool_entries(self, two_point_q2):
        # True == 1, so the metric with one True entry would pass as bi-Katetov
        with pytest.raises(ValidationError, match="True"):
            BiKatetovMatrix(two_point_q2, ((0, True), (1, 0)))
        with pytest.raises(ValidationError):
            characterization_check(two_point_q2, ((0, True), (1, 0)))

    def test_random_sampler_is_exact(self):
        rng = random.Random(1)
        for _ in range(100):
            space = random_grid_space(rng.randint(1, 5), rng.randint(1, 9),
                                      rng.randrange(10 ** 6))
            m = random_bikatetov(space, rng)
            assert is_bikatetov_matrix(space, m.entries)


class TestProduct:
    def test_metric_is_idempotent(self, two_point_q4):
        d = metric_unit(two_point_q4)
        assert product(d, d) == d

    def test_constant_diameter_absorbs(self):
        rng = random.Random(2)
        for _ in range(50):
            space = random_grid_space(rng.randint(1, 4), 6, rng.randrange(10 ** 6))
            f = random_bikatetov(space, rng)
            one = constant_zero(space)
            assert product(f, one) == one
            assert product(one, f) == one

    def test_swap_squares_to_unit(self, two_point_q4):
        sw = embed_isometry(two_point_q4, (1, 0))
        assert product(sw, sw) == metric_unit(two_point_q4)

    def test_base_mismatch_raises(self):
        a = metric_unit(FiniteMetricSpace(("a", "b"), 4, ((0, 1), (1, 0))))
        b = metric_unit(FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0))))
        with pytest.raises(ValidationError):
            product(a, b)


class TestStar:
    def test_metric_is_symmetric(self, two_point_q4):
        d = metric_unit(two_point_q4)
        assert star(d) == d

    def test_star_of_embedded_isometry_is_the_inverse(self, triangle_q2):
        for g in iso_group(triangle_q2):
            inv = tuple(sorted(range(3), key=g.__getitem__))
            assert star(embed_isometry(triangle_q2, g)) == embed_isometry(triangle_q2, inv)


class TestCharacterization:
    def test_metric_passes(self, two_point_q4):
        assert characterization_check(two_point_q4, two_point_q4.dist)

    def test_constant_zero_matrix_fails(self, two_point_q4):
        assert not characterization_check(two_point_q4, ((0, 0), (0, 0)))

    def test_exhaustive_agreement_with_definition(self):
        space = FiniteMetricSpace(("a", "b"), 3, ((0, 2), (2, 0)))
        q = 3
        count = 0
        for code in range((q + 1) ** 4):
            c = code
            vals = []
            for _ in range(4):
                vals.append(c % (q + 1))
                c //= q + 1
            entries = ((vals[0], vals[1]), (vals[2], vals[3]))
            assert characterization_check(space, entries) == \
                is_bikatetov_matrix(space, entries)
            count += 1
        assert count == 256


class TestEmbedding:
    def test_identity_embeds_to_the_metric(self, two_point_q4):
        assert embed_isometry(two_point_q4, (0, 1)) == metric_unit(two_point_q4)

    def test_swap_entries(self, two_point_q4):
        assert embed_isometry(two_point_q4, (1, 0)).entries == ((2, 0), (0, 2))

    def test_morphism_law_exhaustive_on_the_triangle(self, triangle_q2):
        group = iso_group(triangle_q2)
        for g in group:
            for h in group:
                gh = tuple(g[h[i]] for i in range(3))
                assert product(embed_isometry(triangle_q2, g),
                               embed_isometry(triangle_q2, h)) == \
                    embed_isometry(triangle_q2, gh)

    def test_injective(self, triangle_q2):
        images = {embed_isometry(triangle_q2, g).entries for g in iso_group(triangle_q2)}
        assert len(images) == 6

    def test_non_isometry_rejected(self, path_q4):
        with pytest.raises(ValidationError):
            embed_isometry(path_q4, (1, 0, 2, 3))

    @pytest.mark.parametrize("perm", [(True, False), (False, True), (1.0, 0.0), (1, 0.0)])
    def test_bool_and_float_permutations_are_refused(self, two_point_q4, perm):
        p = metric_unit(two_point_q4)
        for call in (lambda: embed_isometry(two_point_q4, perm), lambda: act_left(perm, p),
                     lambda: act_right(p, perm), lambda: inner_aut(perm, p)):
            with pytest.raises(ValidationError, match="not a permutation"):
                call()


class TestRoutingIdempotent:
    def test_full_subset_gives_the_metric(self, two_point_q4):
        assert routing_idempotent(two_point_q4, ("a", "b")) == metric_unit(two_point_q4)

    def test_empty_subset_gives_the_constant(self, two_point_q4):
        assert routing_idempotent(two_point_q4, ()) == constant_zero(two_point_q4)

    def test_singleton_worked_example(self, two_point_q4):
        assert routing_idempotent(two_point_q4, ("a",)).entries == ((0, 2), (2, 4))

    def test_idempotent_and_dominating(self):
        rng = random.Random(7)
        for _ in range(100):
            space = random_grid_space(rng.randint(1, 5), 6, rng.randrange(10 ** 6))
            subset = tuple(p for p in space.points if rng.random() < 0.5)
            b = routing_idempotent(space, subset)
            assert product(b, b) == b
            assert b >= metric_unit(space)

    def test_idempotents_satisfy_triangle_inequality(self):
        rng = random.Random(8)
        for _ in range(100):
            space = random_grid_space(rng.randint(2, 5), 6, rng.randrange(10 ** 6))
            subset = tuple(p for p in space.points if rng.random() < 0.5)
            b = routing_idempotent(space, subset).entries
            n = space.n
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert b[x][y] <= b[x][z] + b[z][y]


class TestActions:
    def test_inner_aut_identity(self, triangle_q2):
        rng = random.Random(9)
        p = random_bikatetov(triangle_q2, rng)
        assert inner_aut((0, 1, 2), p) == p

    def test_inner_aut_fixes_the_metric(self, triangle_q2):
        for g in iso_group(triangle_q2):
            assert inner_aut(g, metric_unit(triangle_q2)) == metric_unit(triangle_q2)

    def test_inner_aut_moves_routing_subsets(self, two_point_q4):
        swapped = inner_aut((1, 0), routing_idempotent(two_point_q4, ("a",)))
        assert swapped == routing_idempotent(two_point_q4, ("b",))

    def test_inner_aut_on_routing_idempotents_en_masse(self):
        rng = random.Random(10)
        for _ in range(40):
            space = random_grid_space(rng.randint(2, 5), 4, rng.randrange(10 ** 6))
            group = iso_group(space)
            subset = tuple(p for p in space.points if rng.random() < 0.5)
            for g in group:
                image = tuple(space.points[g[space.index(p)]] for p in subset)
                assert inner_aut(g, routing_idempotent(space, subset)) == \
                    routing_idempotent(space, image)

    def test_left_action_identity(self, triangle_q2):
        rng = random.Random(11)
        p = random_bikatetov(triangle_q2, rng)
        assert act_left((0, 1, 2), p) == p
        assert act_right(p, (0, 1, 2)) == p

    def test_left_action_of_swap_on_the_metric(self, two_point_q4):
        assert act_left((1, 0), metric_unit(two_point_q4)) == \
            embed_isometry(two_point_q4, (1, 0))

    def test_closed_forms_match_products(self):
        rng = random.Random(12)
        setups = []
        for _ in range(5):
            space = random_grid_space(rng.randint(2, 5), 4, rng.randrange(10 ** 6))
            setups.append((space, iso_group(space)))
        for _ in range(10_000):
            space, group = setups[rng.randrange(len(setups))]
            p = random_bikatetov(space, rng)
            g = rng.choice(group)
            gi = embed_isometry(space, g)
            assert act_left(g, p) == product(gi, p)
            assert act_right(p, g) == product(p, gi)


class TestInvertibles:
    def test_metric_inverts_to_identity(self, two_point_q4):
        assert invertible_isometry(metric_unit(two_point_q4)) == (0, 1)

    def test_routing_idempotent_is_not_invertible(self, two_point_q4):
        assert invertible_isometry(routing_idempotent(two_point_q4, ("a",))) is None

    def test_exhaustive_invertibles_match_the_group(self, two_point_q2):
        unit = metric_unit(two_point_q2)
        elems = enumerate_bikatetov(two_point_q2)
        with_inverse = {
            f.entries for f in elems
            if any(product(f, g) == unit and product(g, f) == unit for g in elems)}
        embedded = {embed_isometry(two_point_q2, p).entries
                    for p in iso_group(two_point_q2)}
        assert with_inverse == embedded
        assert len(with_inverse) == 2
        for f in elems:
            perm = invertible_isometry(f)
            assert (perm is not None) == (f.entries in with_inverse)
            if perm is not None:
                g = star(f)
                assert product(f, g) == unit and product(g, f) == unit


class TestGreatestIdempotent:
    def test_unit_alone(self, two_point_q4):
        d = metric_unit(two_point_q4)
        assert greatest_idempotent([d]) == d

    def test_two_singleton_routings_saturate_to_the_constant(self, two_point_q4):
        top = greatest_idempotent([routing_idempotent(two_point_q4, ("a",)),
                                   routing_idempotent(two_point_q4, ("b",))])
        assert top == constant_zero(two_point_q4)

    def test_swap_generates_only_the_unit_above_d(self, two_point_q4):
        top = greatest_idempotent([embed_isometry(two_point_q4, (1, 0))])
        assert top == metric_unit(two_point_q4)

    def test_every_single_generator_yields_a_routing_idempotent(self, two_point_q2):
        # exhaustive: saturating any one element always produces a greatest
        # dominating idempotent, and it is one of the four routing idempotents
        routings = {routing_idempotent(two_point_q2, sub).entries
                    for sub in ((), ("a",), ("b",), ("a", "b"))}
        for f in enumerate_bikatetov(two_point_q2):
            top = greatest_idempotent([f])
            assert top is not None
            assert top.entries in routings


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# digests of repr(entries) (and of the subsets, for the classification),
# recorded when each enumerator and sampler still had its own search
class TestClassification:
    COUNT_DIGESTS = {1: "8a153fc352761891df120068bc7775466d273947c99a93d93c4a256b2e0fd172",
                     2: "b8b57ce1dbc7f941a228ea614f7c6536531ec0ddb25200afd5573d330d4c15a3",
                     3: "df6f84a9dcf2a35c75b2c76d13697d761fb644af267ec4412bd9faec618cbffb"}

    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 8)])
    def test_counts(self, n, expected):
        space = random_grid_space(n, 4, 17)
        found = classify_idempotents(space)
        assert len(found) == expected
        subsets = {sub for _, sub in found}
        assert len(subsets) == expected
        assert digest([(m.entries, sub) for m, sub in found]) == self.COUNT_DIGESTS[n]

    # fixture: (digest of enumerate_bikatetov, digest of classify_idempotents)
    FIXTURE_DIGESTS = {
        "two_point_q4": ("4d58f6cd76f5965a2696b721331c76170866e6efbe2af76227a9cdbdd89e0f9b",
                         "bfc2b419e10e404e77474997c0e6f27758b147d513f158eb78d7e4be491f6b4c"),
        "two_point_q2": ("7c304f37ab340d0d0554f2c7f9b4c0b620ed948d9cc94ed2abfec2a0f656de91",
                         "d90030a5aa55e8f4563001cff63c178729977228f51041fd866aeb2eb8043681"),
        "triangle_q2": ("b18f6f9d9b07c5b32843726492c514931e5352de83971196b4c594285ad00aba",
                        "177e10312d2169ed3d03ce038e261cab237e3a84af47ee35466515a987986cde")}

    @pytest.mark.parametrize("fixture", ["two_point_q4", "two_point_q2", "triangle_q2"])
    def test_enumerations_are_unchanged(self, request, fixture):
        space = request.getfixturevalue(fixture)
        found = (digest([m.entries for m in enumerate_bikatetov(space)]),
                 digest([(m.entries, sub) for m, sub in classify_idempotents(space)]))
        assert found == self.FIXTURE_DIGESTS[fixture]


def sample_digests(sizes):
    """Digests of both samplers' seeded draws over the given space sizes."""
    drawn, below = [], []
    for n in sizes:
        for q in (1, 2, 3, 5, 8):
            for seed in (0, 1, 2):
                space = random_grid_space(n, q, 1000 * n + 10 * q + seed)
                rng = random.Random(seed)
                m = random_bikatetov(space, rng)
                drawn.append(m.entries)
                below.append(random_bikatetov_below(m, rng).entries)
                # the same sampler at sweep counts the public ones do not use
                one = _gibbs(space, space.dist, [[q] * n] * n, rng, 1)
                below.append(_gibbs(space, one.entries, one.entries, rng, 3).entries)
    return digest(drawn), digest(below)


def test_seeded_samples_are_unchanged():
    drawn, below = sample_digests(range(1, 6))
    assert drawn == "8f47b1f06d58e1f1a25911ec701638738d4210ad3547dfbe2008949153a8248f"
    assert below == "1ea6adb048f500b64fcf5000951319fc9a73a60cb1b428c0a8582c56cb185659"


def test_seeded_samples_at_larger_sizes_are_unchanged():
    # the sizes the algebra_mix benchmark draws reach n=6
    drawn, below = sample_digests(range(6, 9))
    assert drawn == "38ba52df24db6ed80a2ad5b1a713181f4eff32bafa78246ea32bf837716fab36"
    assert below == "b47df62784a112a4adab92f6f67c473c0a71f0a89cc679a6bed8183314881d31"


class RandomOnly(random.Random):
    """Overrides random() alone, so Random draws its integers from random()
    and never through getrandbits."""

    def random(self):
        return super().random()


class OwnBits(random.Random):
    """Overrides getrandbits, which Random draws its integers through."""

    def getrandbits(self, k):
        return super().getrandbits(k)


def reference_gibbs(space, start, ceiling, rng, sweeps):
    """_gibbs through grid.katetov_bounds and Random.randint: each entry in
    turn, drawn from its interval given the row's and the column's others."""
    dist, points = space.dist, range(space.n)
    e = [list(r) for r in start]
    for _ in range(sweeps):
        for x in points:
            for y in points:
                pairs = [(e[x][z], dist[y][z]) for z in points if z != y]
                pairs += [(e[z][y], dist[x][z]) for z in points if z != x]
                e[x][y] = rng.randint(*katetov_bounds(pairs, 0, ceiling[x][y]))
    return tuple(tuple(r) for r in e)


@pytest.mark.parametrize("rng_class", [random.Random, RandomOnly, OwnBits])
def test_gibbs_matches_bounds_and_randint(rng_class):
    # the written-out interval and draw against katetov_bounds and randint on
    # generators of the same seed, from the metric under the constant
    # ceiling and from a drawn matrix under itself: equal matrices, and the
    # generators end in equal states
    for case in range(60):
        n, q = 1 + case % 6, (1, 2, 3, 5, 8)[case % 5]
        space = random_grid_space(n, q, case)
        for start, ceiling in ((space.dist, [[q] * n] * n),
                               (random_bikatetov(space, random.Random(case)).entries,) * 2):
            ours, ref = rng_class(case), rng_class(case)
            got = _gibbs(space, start, ceiling, ours, 2).entries
            assert got == reference_gibbs(space, start, ceiling, ref, 2), case
            assert ours.getstate() == ref.getstate(), case


@pytest.mark.parametrize("rng_class", [random.Random, RandomOnly])
def test_gibbs_refuses_an_empty_interval(rng_class):
    # a ceiling of 0 under a start that is not below it: entry (0, 1) must
    # be at least |0 - 1| once entry (0, 0) is drawn at 0
    space = FiniteMetricSpace(("a", "b"), 1, ((0, 1), (1, 0)))
    with pytest.raises(InvariantError, match=r"^empty Gibbs interval \[1, 0\] at \(0, 1\)$"):
        _gibbs(space, space.dist, [[0, 0], [0, 0]], rng_class(0), 1)


def trusted_route_results(space, rng):
    """(route, matrix) for every route that builds its matrix without
    revalidation, on random bi-Katetov inputs and up to three isometries."""
    f, g = random_bikatetov(space, rng), random_bikatetov(space, rng)
    subset = [p for p in space.points if rng.random() < 0.5]
    out = [("random_bikatetov", f),
           ("random_bikatetov_below", random_bikatetov_below(f, rng)),
           ("product", product(f, g)), ("star", star(f)),
           ("metric_unit", metric_unit(space)), ("constant_zero", constant_zero(space)),
           ("routing_idempotent", routing_idempotent(space, subset))]
    group = iso_group(space)
    for perm in rng.sample(group, min(3, len(group))):
        out += [("embed_isometry", embed_isometry(space, perm)),
                ("act_left", act_left(perm, f)), ("act_right", act_right(f, perm)),
                ("inner_aut", inner_aut(perm, f))]
    return out


class TestTrustedRoutes:
    """Every route that skips revalidation, checked by the three independent
    judges: the kernel predicate, the Python witness search and the
    validating constructor."""

    def test_every_trusted_route_is_bikatetov(self):
        rng = random.Random(41)
        seen = set()
        for case in range(150):
            space = random_grid_space(rng.randint(1, 6), rng.randint(1, 8),
                                      rng.randrange(10 ** 6))
            if case % 3 == 0 and space.n < 6:
                space = with_doubled_point(space, rng)
            for route, m in trusted_route_results(space, rng):
                assert m.space is space, route
                assert type(m.entries) is tuple, route
                assert all(type(row) is tuple for row in m.entries), route
                assert is_bikatetov_matrix(space, m.entries), route
                assert bikatetov_witness(space, m.entries) is None, route
                rebuilt = BiKatetovMatrix(space, m.entries)
                assert rebuilt == m and hash(rebuilt) == hash(m), route
                seen.add((route, space.pseudo))
                if route == "embed_isometry" and m != metric_unit(space):
                    seen.add("non-identity isometry")
        routes = {route for route, _ in trusted_route_results(
            random_grid_space(3, 1, 0), random.Random(0))}
        assert len(routes) == 11
        assert {(route, pseudo) for route in routes for pseudo in (False, True)} \
            | {"non-identity isometry"} == seen


class TestAmalgamOracle:
    def test_units(self, two_point_q4):
        d = metric_unit(two_point_q4)
        assert product_via_amalgam(d, d) == d

    def test_swaps(self, two_point_q4):
        sw = embed_isometry(two_point_q4, (1, 0))
        assert product_via_amalgam(sw, sw) == metric_unit(two_point_q4)

    def test_primed_point_names_are_no_obstacle(self):
        # the layout is unnamed, so a base point may be called x' itself
        space = FiniteMetricSpace(("a", "a'"), 2, ((0, 1), (1, 0)))
        f = embed_isometry(space, (1, 0))
        assert product_via_amalgam(f, f) == product(f, f) == metric_unit(space)

    def test_matches_product_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(150):
            f, g = random_matrix_pair(rng)
            assert product_via_amalgam(f, g) == product(f, g)


    @pytest.mark.parametrize("r, c, at", [(0, 1, "(a,b)"), (0, 3, "(a,b')"),
                                          (3, 2, "(b',a')"), (5, 2, "(b'',a')")],
                             ids=["copy one", "p", "copy two", "q_ transposed"])
    def test_a_contracted_layout_entry_is_refused(self, monkeypatch, two_point_q4, r, c, at):
        # the layout of a, b, a', b', a'', b'' (every specified entry 2 off
        # the diagonal), closed, with entry (r, c) shrunk by one
        closure = _kernels.floyd_warshall_capped

        def contracted(m, w, cap):
            out = closure(m, w, cap)
            out[r * m + c] -= 1
            return out

        monkeypatch.setattr(_kernels, "floyd_warshall_capped", contracted)
        d = metric_unit(two_point_q4)
        with pytest.raises(InvariantError) as e:
            product_via_amalgam(d, d)
        assert str(e.value) == f"three-copy layout is not a pseudometric at {at}"


class TestMTripleSoundness:
    def test_two_copy_union_is_pseudometric_iff_bikatetov(self):
        rng = random.Random(14)
        for _ in range(150):
            space = random_grid_space(rng.randint(1, 4), rng.randint(1, 6),
                                      rng.randrange(10 ** 6))
            n, q = space.n, space.denominator
            if rng.random() < 0.5:
                cross = random_bikatetov(space, rng).entries
            else:
                cross = tuple(tuple(rng.randint(0, q) for _ in range(n))
                              for _ in range(n))
            names = tuple(space.points) + tuple(f"{p}'" for p in space.points)
            rows = []
            for i in range(n):
                rows.append(tuple(space.dist[i]) + tuple(cross[i]))
            for j in range(n):
                rows.append(tuple(cross[i][j] for i in range(n)) + tuple(space.dist[j]))
            report = validate_space(names, q, tuple(rows), pseudo=True)
            assert report.ok == is_bikatetov_matrix(space, cross)
