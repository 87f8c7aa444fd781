import hashlib
import json
import random

import pytest

from urygrid.cli import main
from urygrid.errors import GuardError, ValidationError
from urygrid.katetov import (KatetovFunction, _ProfileFrontier,
                             build_approximant, homogeneity_check,
                             injectivity_check, is_katetov, iso_group,
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
                    frontier.grow(prefix)
                assert frontier.first() == first_zero_free_unrealized(prefix, k)

    # (strategy, max support, q, cap); the template route is kept to q=2
    # subset 2, where its search is quick
    @pytest.mark.parametrize("strategy,k,q,cap", [
        ("random", 1, 3, 20), ("random", 2, 2, 20), ("random", 2, 3, 20),
        ("random", 3, 2, 20), ("random", 3, 3, 14), ("transitive", 2, 2, 32)])
    def test_grown_frontier_matches_full_scan_after_each_added_point(self, strategy, k, q, cap):
        # a build adds points at the end and never moves old distances, so
        # its prefixes are the spaces it held after each with_point
        rng = random.Random(24)
        for _ in range(4):
            seed = random_grid_space(rng.randint(1, 2), q, rng.randrange(10 ** 6))
            built = build_approximant(seed, k, q, cap, rng_seed=rng.randrange(10 ** 6),
                                      strategy=strategy).space
            frontier = _ProfileFrontier(seed, k)
            for m in range(seed.n, built.n + 1):
                prefix = built.restrict(built.points[:m])
                if m > seed.n:
                    frontier.grow(prefix)
                pick = frontier.first()
                assert pick == first_zero_free_unrealized(prefix, k)
                if m < built.n:
                    # the next point is the one the builder added for the pick
                    idx, values = pick
                    assert tuple(built.dist[m][i] for i in idx) == values


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


class TestIsoGroup:
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


class TestHomogeneity:
    def test_size_zero_is_vacuously_homogeneous(self, two_point_q4):
        assert homogeneity_check(two_point_q4, 0).ok

    def test_equilateral_triangle_is_homogeneous(self, triangle_q2):
        assert homogeneity_check(triangle_q2, 2).ok

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
