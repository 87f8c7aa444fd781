import hashlib
import json
import random
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest

from urygrid import katetov
from urygrid.cli import main
from urygrid.errors import GuardError, ValidationError
from urygrid.katetov import (PROFILE_LIMIT, KatetovFunction, _circulant_row,
                             _circulant_space, _closed_through_zero, _embed_seed,
                             _isometric_injections, _ProfileFrontier, _spheres,
                             _stabilizer_chain,
                             build_approximant, find_transitive_template,
                             homogeneity_check, injectivity_check, is_katetov, iso_group,
                             katetov_extension, katetov_witness,
                             point_function, realize_one_point, sup_distance)
from urygrid.spaces import FiniteMetricSpace, random_grid_space, validate_space


def random_total_katetov(space, rng):
    """Katetov profile on a random subset, extended maximally."""
    size = rng.randint(1, space.n)
    support = tuple(rng.sample(space.points, size))
    values = []
    q = space.denominator
    for t, p in enumerate(support):
        lo, hi = 0, q
        for s, v in zip(support[:t], values):
            d = space.distance(s, p)
            lo = max(lo, v - d, d - v)
            hi = min(hi, v + d)
        values.append(rng.randint(lo, hi))
    return katetov_extension(KatetovFunction(space, support, tuple(values)))


class TestIsKatetov:
    def test_single_point_support_is_always_katetov(self, two_point_q4):
        for v in range(5):
            assert is_katetov(KatetovFunction(two_point_q4, ("a",), (v,)))

    def test_lower_bound_failure_with_witness(self, two_point_q4):
        f = KatetovFunction(two_point_q4, ("a", "b"), (0, 1))
        assert katetov_witness(f) == ("a", "b")

    def test_valid_pair(self, two_point_q4):
        assert is_katetov(KatetovFunction(two_point_q4, ("a", "b"), (1, 1)))

    def test_out_of_range_value_is_structural(self, two_point_q4):
        with pytest.raises(ValidationError):
            KatetovFunction(two_point_q4, ("a",), (5,))

    def test_bool_value_is_structural(self, two_point_q4):
        with pytest.raises(ValidationError):
            KatetovFunction(two_point_q4, ("a",), (True,))


class TestExtension:
    def test_two_point_worked_example(self, two_point_q4):
        g = katetov_extension(KatetovFunction(two_point_q4, ("a",), (1,)))
        assert g.values == (1, 3)

    def test_extension_caps_at_diameter(self):
        space = FiniteMetricSpace(("a", "b"), 4, ((0, 3), (3, 0)))
        g = katetov_extension(KatetovFunction(space, ("a",), (3,)))
        assert g.value_at("b") == 4

    def test_total_input_is_returned_unchanged(self, two_point_q4):
        f = KatetovFunction(two_point_q4, ("a", "b"), (1, 1))
        assert katetov_extension(f).total_values() == (1, 1)

    def test_restriction_recovers_input_and_output_is_katetov(self):
        rng = random.Random(2)
        for _ in range(10_000):
            space = random_grid_space(rng.randint(1, 6), rng.randint(1, 9),
                                      rng.randrange(10 ** 6))
            size = rng.randint(1, space.n)
            support = tuple(rng.sample(space.points, size))
            values = []
            for t, p in enumerate(support):
                lo, hi = 0, space.denominator
                for s, v in zip(support[:t], values):
                    d = space.distance(s, p)
                    lo = max(lo, v - d, d - v)
                    hi = min(hi, v + d)
                values.append(rng.randint(lo, hi))
            f = KatetovFunction(space, support, tuple(values))
            g = katetov_extension(f)
            assert is_katetov(g)
            for p, v in zip(support, values):
                assert g.value_at(p) == v

    def test_monotone_in_the_support(self):
        rng = random.Random(4)
        for _ in range(200):
            space = random_grid_space(rng.randint(2, 6), 8, rng.randrange(10 ** 6))
            g = random_total_katetov(space, rng)
            big = tuple(rng.sample(space.points, rng.randint(2, space.n)))
            small = big[:rng.randint(1, len(big) - 1)]
            f_big = KatetovFunction(space, big, tuple(g.value_at(p) for p in big))
            f_small = KatetovFunction(space, small, tuple(g.value_at(p) for p in small))
            ext_big = katetov_extension(f_big).total_values()
            ext_small = katetov_extension(f_small).total_values()
            assert all(a >= b for a, b in zip(ext_small, ext_big))

    def test_rejects_non_katetov_input(self, two_point_q4):
        with pytest.raises(ValidationError):
            katetov_extension(KatetovFunction(two_point_q4, ("a", "b"), (0, 1)))


class TestPointFunction:
    def test_distance_row(self, two_point_q4):
        assert point_function(two_point_q4, "a").total_values() == (0, 2)

    def test_vanishes_at_its_point(self):
        rng = random.Random(6)
        for _ in range(20):
            space = random_grid_space(5, 7, rng.randrange(10 ** 6))
            p = rng.choice(space.points)
            assert point_function(space, p).value_at(p) == 0

    def test_equals_extension_of_zero_at_the_point(self):
        rng = random.Random(8)
        for _ in range(50):
            space = random_grid_space(rng.randint(1, 6), 6, rng.randrange(10 ** 6))
            p = rng.choice(space.points)
            ext = katetov_extension(KatetovFunction(space, (p,), (0,)))
            assert ext.total_values() == point_function(space, p).total_values()


class TestSupDistance:
    def test_zero_on_equal(self, two_point_q4):
        f = point_function(two_point_q4, "a")
        assert sup_distance(f, f) == 0

    def test_distance_to_point_function_evaluates(self):
        # sup |f - h_x| is attained at x and equals f(x)
        rng = random.Random(10)
        for _ in range(200):
            space = random_grid_space(rng.randint(1, 6), 8, rng.randrange(10 ** 6))
            f = random_total_katetov(space, rng)
            x = rng.choice(space.points)
            assert sup_distance(f, point_function(space, x)) == f.value_at(x)

    def test_componentwise_example(self, two_point_q4):
        f = KatetovFunction(two_point_q4, ("a", "b"), (1, 3))
        g = KatetovFunction(two_point_q4, ("a", "b"), (0, 2))
        assert sup_distance(f, g) == 1


class TestRealizeOnePoint:
    def test_duplicate_of_existing_point_is_flagged(self, two_point_q4):
        ext = realize_one_point(two_point_q4, point_function(two_point_q4, "a"))
        assert ext.identified_with == ("a",)
        assert ext.space.pseudo

    def test_fresh_point_gives_valid_space(self, two_point_q4):
        f = KatetovFunction(two_point_q4, ("a", "b"), (1, 1))
        ext = realize_one_point(two_point_q4, f)
        assert ext.space.n == 3 and not ext.identified_with
        assert validate_space(ext.space.points, 4, ext.space.dist).ok

    def test_constant_diameter_is_realizable(self):
        rng = random.Random(12)
        for _ in range(20):
            space = random_grid_space(rng.randint(1, 5), 6, rng.randrange(10 ** 6))
            f = KatetovFunction(space, space.points, (6,) * space.n)
            assert realize_one_point(space, f).space.n == space.n + 1


class TestInjectivity:
    def test_single_point_space(self):
        space = FiniteMetricSpace(("a",), 2, ((0,),))
        report = injectivity_check(space, 1)
        assert {v for (_, (v,)) in report.unrealized} == {1, 2}

    def test_point_profiles_always_realized(self):
        rng = random.Random(14)
        for _ in range(20):
            space = random_grid_space(rng.randint(2, 5), 4, rng.randrange(10 ** 6))
            report = injectivity_check(space, 2)
            for support, values in report.unrealized:
                for x in space.points:
                    assert tuple(space.distance(x, p) for p in support) != values

    def test_support_size_below_one_is_rejected(self, two_point_q4):
        with pytest.raises(ValidationError):
            injectivity_check(two_point_q4, 0)

    def test_profile_listing_stops_at_the_limit(self):
        # a singleton support at denominator q has q + 1 profiles
        limit = PROFILE_LIMIT
        assert injectivity_check(FiniteMetricSpace(("a",), limit - 1, ((0,),)), 1).checked \
            == limit
        with pytest.raises(GuardError, match=f"used {limit + 1} candidates, limit {limit}"):
            injectivity_check(FiniteMetricSpace(("a",), limit, ((0,),)), 1)
        with pytest.raises(GuardError):
            build_approximant(FiniteMetricSpace(("a", "b"), 10 ** 6, ((0, 1), (1, 0))),
                              2, 10 ** 6, 8)


def first_zero_free_unrealized(space, max_subset):
    """The builder's pick, read off the independent full scan."""
    for support, values in injectivity_check(space, max_subset).unrealized:
        if 0 not in values:
            return tuple(space.index(p) for p in support), values
    return None


class TestProfileFrontier:
    def test_first_pick_matches_full_scan_on_random_spaces(self):
        rng = random.Random(20)
        for _ in range(150):
            space = random_grid_space(rng.randint(1, 7), rng.randint(1, 4),
                                      rng.randrange(10 ** 6))
            k = rng.randint(1, 3)
            assert (_ProfileFrontier(space, k).first()
                    == first_zero_free_unrealized(space, k))

    def test_grown_frontier_matches_full_scan_point_by_point(self):
        # points that realize nothing in particular: the frontier must see
        # the supports each one opens and what each one realizes
        rng = random.Random(22)
        for _ in range(40):
            space = random_grid_space(rng.randint(2, 9), rng.randint(1, 4),
                                      rng.randrange(10 ** 6))
            k = rng.randint(1, 3)
            frontier = _ProfileFrontier(space.restrict(space.points[:1]), k)
            for m in range(1, space.n + 1):
                prefix = space.restrict(space.points[:m])
                if m > 1:
                    frontier.grow(space.dist[m - 1][:m - 1])
                # the grown matrix and sphere index are the prefix's own; the
                # frontier indexes its spheres by value, 0..q
                assert frontier.dist == [list(row) for row in prefix.dist]
                assert frontier.sph == [[s.get(v, 0) for v in range(space.denominator + 1)]
                                        for s in _spheres(prefix.dist)]
                assert frontier.first() == first_zero_free_unrealized(prefix, k)

    # (strategy, max support, q, cap); the template route is kept to q=2
    # subset 2, where its search is quick
    @pytest.mark.parametrize("strategy,k,q,cap", [
        ("random", 1, 3, 20), ("random", 2, 2, 20), ("random", 2, 3, 20),
        ("random", 3, 2, 20), ("random", 3, 3, 14), ("transitive", 2, 2, 32)])
    def test_grown_frontier_matches_full_scan_after_each_added_point(self, strategy, k, q, cap):
        # a build adds points at the end and never moves old distances, so
        # its prefixes are the spaces it held after each added row
        rng = random.Random(24)
        for _ in range(4):
            seed = random_grid_space(rng.randint(1, 2), q, rng.randrange(10 ** 6))
            built = build_approximant(seed, k, q, cap, rng_seed=rng.randrange(10 ** 6),
                                      strategy=strategy).space
            frontier = _ProfileFrontier(seed, k)
            for m in range(seed.n, built.n + 1):
                prefix = built.restrict(built.points[:m])
                if m > seed.n:
                    frontier.grow(built.dist[m - 1][:m - 1])
                pick = frontier.first()
                assert pick == first_zero_free_unrealized(prefix, k)
                if m < built.n:
                    # the next point is the one the builder added for the pick
                    idx, values = pick
                    assert tuple(built.dist[m][i] for i in idx) == values


class TestCirculantTemplate:
    def test_rotation_check_matches_full_scan(self):
        # every candidate the template search can meet for n <= 12, q <= 3
        outcomes = set()
        for q in range(1, 4):
            for n in range(1, 13):
                points = tuple(f"v{i}" for i in range(n))
                for colors in product(range(1, q + 1), repeat=n // 2):
                    rows = [[colors[min((j - i) % n, (i - j) % n) - 1] if i != j else 0
                             for j in range(n)] for i in range(n)]
                    row = _circulant_row(n, colors)
                    ok = validate_space(points, q, rows).ok
                    assert (row is not None) == ok
                    if ok:
                        template = _circulant_space(q, row)
                        assert template == FiniteMetricSpace(points, q, rows)
                        assert template.index(points[-1]) == n - 1
                    outcomes.add(ok)
        assert outcomes == {True, False}

    def test_quick_accept_matches_full_triangle_check(self):
        # no color more than twice another skips the scan; every coloring
        # for n <= 12, q <= 4 against the full check over all triples: for
        # each pair x, y, the least d(x, z) + d(z, y) over z is d(x, y)
        outcomes = set()
        for q in range(1, 5):
            for n in range(1, 13):
                for colors in product(range(1, q + 1), repeat=n // 2):
                    rows = circulant_rows(n, colors)
                    ok = all(min(map(int.__add__, rows[x], rows[y])) == rows[x][y]
                             for x in range(n) for y in range(x + 1, n))
                    row = _circulant_row(n, colors)
                    assert (row is not None) == ok, (n, colors)
                    if ok:
                        assert row == rows[0]
                    quick = n == 1 or max(colors) <= 2 * min(colors)
                    outcomes.add((quick, ok))
        assert outcomes == {(True, True), (False, True), (False, False)}


class TestBuildApproximant:
    def test_support_size_below_one_is_rejected(self):
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        with pytest.raises(ValidationError):
            build_approximant(seed, 0, 2, 8)

    def test_closed_seed_is_unchanged(self):
        # the 1-point seed is trivially closed at subset size 1 and grid 1
        seed = FiniteMetricSpace(("a",), 1, ((0,),))
        result = build_approximant(seed, 1, 1, 8)
        # grid 1 allows only value 1 off the point itself; one extension needed
        assert result.status == "closed"

    def test_capped_when_budget_equals_seed(self):
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        result = build_approximant(seed, 1, 2, 1)
        assert result.status == "capped"
        assert result.space == seed

    def test_single_point_seed_closes_at_subset_one(self):
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        result = build_approximant(seed, 1, 2, 32)
        assert result.status == "closed"
        assert injectivity_check(result.space, 1).ok
        row = {result.space.distance("a", p) for p in result.space.points}
        assert {1, 2} <= row

    def test_seed_embeds_isometrically(self):
        rng = random.Random(16)
        seed = random_grid_space(3, 2, 5)
        result = build_approximant(seed, 2, 2, 48, rng_seed=1)
        for p in seed.points:
            for q_ in seed.points:
                assert result.space.distance(p, q_) == seed.distance(p, q_)

    def test_row_that_breaks_a_triangle_is_refused_with_the_report(self, monkeypatch):
        # a free distance forced to the top of [1, q], outside its exact
        # interval: the new row's check fails and validate_space reports it
        bounds = katetov.katetov_bounds
        monkeypatch.setattr(katetov, "katetov_bounds",
                            lambda pairs, lo, hi: (hi, hi) if lo == 1 else bounds(pairs, lo, hi))
        seed = FiniteMetricSpace(("a", "b"), 4, ((0, 1), (1, 0)))
        with pytest.raises(ValidationError, match=r"d\(b,a0\) = 4 > 1 \+ 2 via a") as caught:
            build_approximant(seed, 1, 4, 8, strategy="random")
        assert [v.kind for v in caught.value.witness.problems] == ["triangle"]

    def test_benchmark_transitive_build_is_the_rook_complement(self):
        # the benchmark's ("auto", 2, 2, 64) recipe on a 1-point seed
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        result = build_approximant(seed, 2, 2, 64)
        space = result.space
        assert (result.status, result.strategy, space.n) == ("closed", "transitive", 12)
        # (row, column) in a 3 x 4 grid: points at distance 1/2 are the ones
        # in different rows and different columns
        cell = {"a": (0, 0), "a0": (1, 1), "a1": (0, 2), "a2": (1, 0), "a3": (2, 3),
                "a4": (2, 1), "a5": (1, 2), "a6": (0, 3), "a7": (2, 0), "a8": (0, 1),
                "a9": (2, 2), "a10": (1, 3)}
        assert sorted(cell.values()) == list(product(range(3), range(4)))
        for x, y in combinations(space.points, 2):
            (r, c), (s, t) = cell[x], cell[y]
            assert space.distance(x, y) == (1 if r != s and c != t else 2), (x, y)
        near = [[y for y in space.points if space.distance(x, y) == 1] for x in space.points]
        assert {len(ys) for ys in near} == {6}
        assert sum(all(space.distance(x, y) == 1 for x, y in combinations(tri, 2))
                   for tri in combinations(space.points, 3)) == 24
        # S3 x S4 permutes the rows and columns
        assert len(iso_group(space, max_points=12)) == 144

    def test_external_one_point_extensions_match_inside_a_closed_space(self):
        # embed a small subspace of the closed space as an abstract space K,
        # extend K by an external point p in every grid-feasible way, and the
        # closed space must already hold a point matching p's profile
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        closed = build_approximant(seed, 2, 2, 64).space
        rng = random.Random(77)
        matched = 0
        for _ in range(60):
            names = rng.sample(closed.points, 2)
            sub = closed.restrict(names)
            for f0 in range(3):
                for f1 in range(3):
                    values = (f0, f1)
                    cand = KatetovFunction(sub, tuple(names), values)
                    if not is_katetov(cand) or 0 in values:
                        continue
                    induced = KatetovFunction(closed, tuple(names), values)
                    hit = any(
                        all(closed.distance(x, nm) == v
                            for nm, v in zip(names, values))
                        for x in closed.points)
                    assert hit, (names, values)
                    matched += 1
        assert matched > 0


def paley_29():
    """The circulant on Z_29 with gap g at distance 1/2 exactly when g is a
    nonzero square mod 29."""
    squares = {g * g % 29 for g in range(1, 29)}
    return _circulant_space(2, _circulant_row(29, [1 if g in squares else 2
                                                   for g in range(1, 15)]))


def brute_injections(pattern, target):
    """Every injective index tuple carrying the pattern's distances into the
    target, by filtering all of them; lexicographic like permutations()."""
    k = len(pattern)
    return [img for img in permutations(range(len(target)), k)
            if all(target[img[i]][img[j]] == pattern[i][j]
                   for i in range(k) for j in range(k))]


def random_spaces(seed, count, max_n=6):
    """Random grid spaces of up to max_n points, about a third of them
    pseudometrics with one point doubled, another third of exactly max_n."""
    rng = random.Random(seed)
    for _ in range(count):
        space = random_grid_space(rng.randint(1, max_n - 1), rng.randint(1, 4),
                                  rng.randrange(10 ** 6))
        if rng.random() < 0.35:
            twin = rng.randrange(space.n)
            space = FiniteMetricSpace(space.points, space.denominator, space.dist,
                                      pseudo=True).with_point("twin", space.dist[twin],
                                                              pseudo=True)
        elif rng.random() < 0.5:
            space = random_grid_space(max_n, rng.randint(1, 4), rng.randrange(10 ** 6))
        yield space


class TestIsoGroup:
    def test_matches_permutation_filter(self):
        for space in random_spaces(31, 60):
            assert iso_group(space) == tuple(brute_injections(space.dist, space.dist))

    def test_embedding_is_the_first_brute_force_one(self):
        rng = random.Random(32)
        for target in random_spaces(33, 60):
            seed = random_grid_space(rng.randint(1, 3), target.denominator,
                                     rng.randrange(10 ** 6))
            found = brute_injections(seed.dist, target.dist)
            assert _embed_seed(seed, target) == (list(found[0]) if found else None)

    def test_injections_match_brute_force_listing(self):
        # every injection, in order, of 1- to 3-point patterns; the wide
        # targets give masks of several int digits, the twins zero distances
        rng = random.Random(35)
        targets = list(random_spaces(36, 30))
        for _ in range(6):
            wide = random_grid_space(rng.randint(31, 36), rng.randint(1, 3),
                                     rng.randrange(10 ** 6))
            if rng.random() < 0.5:
                twin = rng.randrange(wide.n)
                wide = FiniteMetricSpace(wide.points, wide.denominator, wide.dist,
                                         pseudo=True).with_point("twin", wide.dist[twin],
                                                                 pseudo=True)
            targets.append(wide)
        outcomes = set()
        for target in targets:
            d = target.dist
            for _ in range(3):
                k = rng.randint(1, min(3, target.n))
                if rng.random() < 0.7:
                    dom = rng.sample(range(target.n), k)
                    pattern = [[d[a][b] for b in dom] for a in dom]
                else:
                    pattern = random_grid_space(k, target.denominator,
                                                rng.randrange(10 ** 6)).dist
                want = brute_injections(pattern, d)
                assert list(_isometric_injections(pattern, d)) == want
                assert list(_isometric_injections(pattern, d, _spheres(d))) == want
                outcomes.add((target.n > 30, target.pseudo, bool(want)))
        assert {(True, True, True), (True, False, True), (False, True, True),
                (False, False, False)} <= outcomes

    def test_two_point_space(self, two_point_q4):
        assert iso_group(two_point_q4) == ((0, 1), (1, 0))

    def test_all_distances_distinct_gives_identity_only(self):
        space = FiniteMetricSpace(("a", "b", "c"), 4,
                                  ((0, 1, 2), (1, 0, 3), (2, 3, 0)))
        assert iso_group(space) == ((0, 1, 2),)

    def test_equilateral_triangle_gives_all_permutations(self, triangle_q2):
        assert len(iso_group(triangle_q2)) == 6

    def test_group_axioms_by_table(self):
        rng = random.Random(18)
        for _ in range(15):
            space = random_grid_space(rng.randint(2, 6), 3, rng.randrange(10 ** 6))
            group = set(iso_group(space))
            assert tuple(range(space.n)) in group
            for g in group:
                inv = tuple(sorted(range(space.n), key=g.__getitem__))
                assert inv in group
                for h in group:
                    assert tuple(g[h[i]] for i in range(space.n)) in group

    def test_size_guard_refuses(self):
        space = random_grid_space(11, 3, 0)
        with pytest.raises(GuardError):
            iso_group(space)

    def test_chain_matches_permutation_filter_on_symmetric_spaces(self):
        # metric circulants on 7 and 8 points and an equilateral space have
        # chains with several nontrivial levels
        spaces = [FiniteMetricSpace(tuple("abcdefg"), 1, tuple(
            tuple(int(i != j) for j in range(7)) for i in range(7)))]
        for n, q in [(7, 2), (7, 3), (8, 2)]:
            for colors in product(range(1, q + 1), repeat=n // 2):
                row = _circulant_row(n, colors)
                if row is not None and (n == 7 or colors[0] == 1):
                    spaces.append(_circulant_space(q, row))
        sizes = set()
        for space in spaces:
            group = iso_group(space)
            assert group == tuple(brute_injections(space.dist, space.dist))
            sizes.add(len(group))
        assert {14, 16, 5040} <= sizes

    def test_chain_matches_plain_listing_on_transitive_builds(self):
        rng = random.Random(37)
        spaces = [paley_29()]
        for points in (1, 2):
            for _ in range(3):
                for strategy, k, q, cap in BENCHMARK_RECIPES:
                    seed = random_grid_space(points, q, rng.randrange(10 ** 6))
                    r = build_approximant(seed, k, q, cap, rng_seed=rng.randrange(10 ** 6),
                                          strategy=strategy)
                    if r.strategy == "transitive":
                        spaces.append(r.space)
        assert len(spaces) > 4
        for space in spaces:
            d = space.dist
            assert iso_group(space, max_points=space.n) == tuple(_isometric_injections(d, d))

    def test_chain_levels_fix_the_earlier_points(self):
        spaces = list(random_spaces(38, 40))
        spaces.append(paley_29())
        spaces.append(build_approximant(FiniteMetricSpace(("a",), 2, ((0,),)), 2, 2, 64).space)
        for space in spaces:
            d, n = space.dist, space.n
            chain = _stabilizer_chain(d, _spheres(d))
            order = 1
            for i, level in enumerate(chain):
                assert level[i] == tuple(range(n))
                for t, g in level.items():
                    assert g[:i + 1] == (*range(i), t)
                    assert sorted(g) == list(range(n))
                    assert all(d[g[a]][g[b]] == d[a][b] for a in range(n) for b in range(n))
                order *= len(level)
            assert order == len(iso_group(space, max_points=n))


class TestHomogeneity:
    def test_support_size_below_one_is_rejected(self, two_point_q4):
        for size in (0, -3):
            with pytest.raises(ValidationError, match="at least 1"):
                homogeneity_check(two_point_q4, size)

    def test_equilateral_triangle_is_homogeneous(self, triangle_q2):
        assert homogeneity_check(triangle_q2, 2).ok

    def test_matches_brute_force_count(self):
        for space in random_spaces(34, 40):
            group = brute_injections(space.dist, space.dist)
            checked, bad = 0, []
            for k in range(1, 4):
                for dom in combinations(range(space.n), k):
                    pattern = [[space.dist[a][b] for b in dom] for a in dom]
                    for img in brute_injections(pattern, space.dist):
                        checked += 1
                        if not any(all(g[a] == b for a, b in zip(dom, img)) for g in group):
                            bad.append(tuple(zip((space.points[a] for a in dom),
                                                 (space.points[b] for b in img))))
            report = homogeneity_check(space, 3)
            assert (report.checked, report.non_extendable) == (checked, tuple(bad))

    def test_path_end_pair_to_middle_pair_is_reported(self, path_q4):
        report = homogeneity_check(path_q4, 2)
        assert not report.ok
        assert (("a", "b"), ("b", "c")) in report.non_extendable


GOLDEN_SEEDS = {
    "p1q2": {"points": ["a"], "denominator": 2, "dist": [[0]]},
    "p1q3": {"points": ["a"], "denominator": 3, "dist": [[0]]},
    "p2q2": {"points": ["a", "b"], "denominator": 2, "dist": [[0, 1], [1, 0]]},
    "p2q3": {"points": ["a", "b"], "denominator": 3, "dist": [[0, 2], [2, 0]]},
}

# sha256 of `approximant build --json` stdout, recorded with the builder
# that rescanned every profile after each added point; the frontier must
# reproduce the same picks, random draws and bytes
GOLDEN_BUILDS = [
    (("p1q2", "--subset", "1", "--cap", "32", "--strategy", "random"),
     "7181f07028b82b8c113643e3397c2f53811c21665bd281b965fda16bf95d2e14"),
    (("p1q3", "--subset", "1", "--cap", "32", "--strategy", "transitive"),
     "0ee2477a64f47be9f9d939f53fd14a9f7d881e5beed8f57a43cc312e29bde0c2"),
    (("p2q3", "--subset", "1", "--grid", "3", "--cap", "32", "--strategy", "auto"),
     "fcc284ae1121f51c1ab892f8bee14ac5784b359a350462b682763571b7e29bf9"),
    (("p1q2", "--subset", "2", "--cap", "64", "--strategy", "auto"),
     "c71ae8749bc70202e2b032f3a1810b4d739b6e76d47827beb9003dd0a9fcd0ec"),
    (("p2q2", "--subset", "2", "--cap", "64", "--strategy", "transitive"),
     "5dfa88d02a700bf6863ccd0b56ca79f7878a30f1e1fcc23f098f07e273e28e8f"),
    (("p2q2", "--subset", "2", "--cap", "64", "--strategy", "random", "--seed", "5"),
     "c2850a0fae9526cabe11b4fbaba64ee9ecf66d687fd3722c8cf6259e071d7f31"),
    (("p2q3", "--subset", "2", "--cap", "10", "--strategy", "auto"),
     "a9e3f61ea42e0f93928800dd48fffc4f5efe0d5777aa5d62c0bd9b337fa556e9"),
    (("p1q2", "--subset", "3", "--cap", "24", "--strategy", "random", "--seed", "3"),
     "cc1ee7c3e94cdfd3fb9ea6bfe8753a2a6dcffd00a0a1bbef5fec37c17bf6924b"),
    (("p2q3", "--subset", "3", "--cap", "12", "--strategy", "random"),
     "808a6b9c392de7e4af4ea716092614d9365379ebb63249558bb1409fd13ceb83"),
    (("p1q3", "--subset", "2", "--cap", "12", "--strategy", "auto", "--seed", "2"),
     "b86c84b92173afdc68a4ef768012eb461694664fc23736e46db779b2fadec5d7"),
]


@pytest.mark.parametrize("case,digest", GOLDEN_BUILDS,
                         ids=[" ".join(c) for c, _ in GOLDEN_BUILDS])
def test_build_json_bytes_are_unchanged(capsys, tmp_path, case, digest):
    seed = tmp_path / f"{case[0]}.json"
    seed.write_text(json.dumps(GOLDEN_SEEDS[case[0]]))
    code = main(["--json", "approximant", "build", str(seed), *case[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the four recipes of the approximant_grow benchmark workload:
# (strategy, max support, q, cap)
BENCHMARK_RECIPES = [("random", 2, 2, 64), ("random", 3, 2, 32),
                     ("auto", 2, 2, 64), ("auto", 2, 3, 10)]


def golden_build(case):
    """build_approximant on a GOLDEN_BUILDS case, with the CLI's defaults."""
    opts = dict(zip(case[1::2], case[2::2]))
    seed = FiniteMetricSpace(**GOLDEN_SEEDS[case[0]])
    return build_approximant(seed, int(opts["--subset"]),
                             int(opts.get("--grid", seed.denominator)),
                             int(opts.get("--cap", 64)), rng_seed=int(opts.get("--seed", 0)),
                             strategy=opts.get("--strategy", "auto"))


def test_built_spaces_revalidate():
    # the builder checks each row on its own and trusts the final space:
    # the validating constructor must accept it as it stands
    results = [golden_build(case) for case, _ in GOLDEN_BUILDS]
    rng = random.Random(26)
    for points in (1, 2):
        for strategy, k, q, cap in BENCHMARK_RECIPES:
            seed = random_grid_space(points, q, rng.randrange(10 ** 6))
            results.append(build_approximant(seed, k, q, cap, rng_seed=rng.randrange(10 ** 6),
                                             strategy=strategy))
    assert {r.strategy for r in results} == {"random", "transitive"}
    for r in results:
        space = r.space
        assert FiniteMetricSpace(space.points, space.denominator, space.dist,
                                 space.pseudo) == space


def circulant_rows(n, colors):
    """Distance rows of Z_n with d(i, j) = colors[g - 1] at cyclic gap g."""
    return [[colors[min((j - i) % n, (i - j) % n) - 1] if i != j else 0
             for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def brute_closed_circulants(n, q, k):
    """Every gap coloring of Z_n in lexicographic order whose circulant is a
    metric space realizing every profile on every support of up to k
    points, by the full checks and nothing else."""
    points = tuple(f"v{i}" for i in range(n))
    out = []
    for colors in product(range(1, q + 1), repeat=n // 2):
        rows = circulant_rows(n, colors)
        if validate_space(points, q, rows).ok:
            space = FiniteMetricSpace(points, q, rows)
            if injectivity_check(space, k).ok:
                out.append(space)
    return tuple(out)


def brute_template(seed, k, q, cap):
    """find_transitive_template without a budget: the first closed
    circulant holding the seed, n by n and every coloring in turn."""
    for n in range(max(seed.n, 1), cap + 1):
        for space in brute_closed_circulants(n, q, k):
            found = brute_injections(seed.dist, space.dist)
            if found:
                return space, list(found[0])
    return None


class TestTemplateSearch:
    def test_closure_through_zero_matches_full_scan(self):
        # every candidate circulant the search can meet for n <= 12
        outcomes = set()
        for q, k in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            for n in range(1, 13):
                for colors in product(range(1, q + 1), repeat=n // 2):
                    row = _circulant_row(n, colors)
                    if row is not None:
                        closed = _closed_through_zero(row, q, k)
                        assert closed == injectivity_check(_circulant_space(q, row), k).ok
                        outcomes.add(closed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("q,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_search_matches_brute_force_twin(self, q, k):
        # q^(n // 2) summed over n <= 14 stays under the default budget, so
        # the budgeted search and the exhaustive twin must agree exactly
        rng = random.Random(40 + 10 * q + k)
        seeds = [FiniteMetricSpace(**spec).rescaled(q) for spec in GOLDEN_SEEDS.values()
                 if q % spec["denominator"] == 0]
        seeds += [random_grid_space(rng.randint(1, 3), q, rng.randrange(10 ** 6))
                  for _ in range(20)]
        for seed in seeds:
            for cap in (8, 14):
                assert find_transitive_template(seed, k, q, cap) == \
                    brute_template(seed, k, q, cap)

    def test_subset_three_on_grid_two_finds_paley_29(self):
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        template, embedded = find_transitive_template(seed, 3, 2, 64)
        squares = {g * g % 29 for g in range(1, 29)}
        assert template.dist[0] == tuple([0] + [1 if g in squares else 2
                                                for g in range(1, 29)])
        assert embedded == [0]
        assert injectivity_check(template, 3).ok
        assert len(iso_group(template, max_points=29)) == 406
        assert homogeneity_check(template, 1, max_points=29).ok
        report = homogeneity_check(template, 2, max_points=29)
        assert (report.ok, report.checked) == (True, 165677)

    def test_transitive_refusal_reports_its_budget(self, capsys, tmp_path):
        # (q, k) = (3, 2) has no closed circulant within the budget; the
        # pre-check stops the search before n = 20
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(GOLDEN_SEEDS["p1q3"]))
        code = main(["approximant", "build", str(seed), "--subset", "2", "--grid", "3",
                     "--cap", "24", "--strategy", "transitive"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("refused: no transitive template within the search budget: "
                                "13931 of 20000 canonical colorings tried, every n <= 19 "
                                "searched in full; use strategy='random'\n")

    def test_subset_three_on_grid_two_builds_closed(self, capsys, tmp_path):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(GOLDEN_SEEDS["p1q2"]))
        code = main(["approximant", "build", str(seed), "--subset", "3", "--grid", "2",
                     "--cap", "64", "--strategy", "transitive"])
        assert code == 0
        assert capsys.readouterr().out.startswith("status closed, 28 points")
