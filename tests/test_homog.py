import random

import pytest

from urygrid.errors import GuardError, ValidationError
from urygrid.graev import graev_norm, reduce_word
from urygrid.homog import (PartialIsometryRelation, composition_weight_bound,
                           compose, diagonal, hausdorff_distance, invert,
                           nu_truncated, random_partial_isometry,
                           relation_alphabet, relation_witness,
                           validate_relation, weight, word_image, word_relates)
from urygrid.spaces import random_grid_space

from conftest import random_word


@pytest.fixture
def space4():
    return random_grid_space(4, 6, 99)


def singleton_stock(space):
    return [PartialIsometryRelation(space, ((a, b),))
            for a in space.points for b in space.points]


def random_stock(space, rng, size=3):
    rels = []
    seen = set()
    guard = 0
    while len(rels) < size and guard < 200:
        guard += 1
        r = random_partial_isometry(space, rng)
        if r.pairs not in seen:
            seen.add(r.pairs)
            rels.append(r)
    return rels


class TestRelationValidation:
    def test_singleton_is_always_valid(self, two_point_q4):
        assert validate_relation(PartialIsometryRelation(two_point_q4, (("a", "b"),)))

    def test_identity_fragment_is_valid(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "a"), ("b", "b")))
        assert validate_relation(r)

    def test_collapsing_pair_is_invalid(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "a"), ("a", "b")))
        assert relation_witness(r) == ((("a", "a"), ("a", "b")))

    def test_empty_relation_is_excluded(self, two_point_q4):
        with pytest.raises(ValidationError):
            PartialIsometryRelation(two_point_q4, ())


class TestHausdorff:
    def test_zero_on_equal(self, space4):
        rng = random.Random(1)
        r = random_partial_isometry(space4, rng)
        assert hausdorff_distance(r, r) == 0

    def test_single_pair_worked_example(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "a"),))
        s = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        assert hausdorff_distance(r, s) == 2

    def test_symmetric_and_triangle(self, space4):
        rng = random.Random(2)
        for _ in range(200):
            r, s, t = (random_partial_isometry(space4, rng) for _ in range(3))
            assert hausdorff_distance(r, s) == hausdorff_distance(s, r)
            assert hausdorff_distance(r, t) <= \
                hausdorff_distance(r, s) + hausdorff_distance(s, t)

    def test_zero_iff_equal(self, space4):
        rng = random.Random(3)
        for _ in range(200):
            r = random_partial_isometry(space4, rng)
            s = random_partial_isometry(space4, rng)
            assert (hausdorff_distance(r, s) == 0) == (r.pairs == s.pairs)


class TestWeight:
    def test_diagonal_fragments_weigh_nothing(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "a"), ("b", "b")))
        assert weight(r) == 0

    def test_single_pair(self, two_point_q4):
        assert weight(PartialIsometryRelation(two_point_q4, (("a", "b"),))) == 2

    def test_nonexpanding_against_hausdorff(self, space4):
        rng = random.Random(4)
        for _ in range(10_000):
            r = random_partial_isometry(space4, rng)
            s = random_partial_isometry(space4, rng)
            assert abs(weight(r) - weight(s)) <= hausdorff_distance(r, s)


class TestWordImage:
    def test_single_letter_is_the_relation(self, space4):
        rng = random.Random(5)
        r = random_partial_isometry(space4, rng)
        assert word_image([r], ((0, 1),)) == r.index_pairs()

    def test_letter_times_inverse_lands_in_the_diagonal(self, two_point_q4):
        # r moves a to b; the inverse letter acts first, so the composite
        # fixes b and nothing else
        r = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        img = word_image([r], ((0, 1), (0, -1)))
        assert img == frozenset({(1, 1)})
        assert img <= diagonal(two_point_q4)

    def test_empty_word_is_the_diagonal(self, space4):
        rng = random.Random(6)
        r = random_partial_isometry(space4, rng)
        assert word_image([r], ()) == diagonal(space4)

    def test_concatenation_is_composition(self, space4):
        rng = random.Random(7)
        rels = random_stock(space4, rng)
        for _ in range(200):
            u = random_word(rng, len(rels), 4)
            v = random_word(rng, len(rels), 4)
            assert word_image(rels, u + v) == \
                compose(word_image(rels, u), word_image(rels, v))

    def test_reduction_grows_the_image(self, space4):
        rng = random.Random(8)
        rels = random_stock(space4, rng)
        for _ in range(300):
            w = random_word(rng, len(rels), 6)
            assert word_image(rels, w) <= word_image(rels, reduce_word(w))

    def test_inverse_law(self, space4):
        rng = random.Random(9)
        rels = random_stock(space4, rng)
        for _ in range(300):
            w = random_word(rng, len(rels), 6)
            assert word_image(rels, inverse(w)) == invert(word_image(rels, w))

    def test_functional_contraction(self, space4):
        rng = random.Random(10)
        for _ in range(200):
            r = random_partial_isometry(space4, rng)
            img = r.index_pairs()
            assert compose(img, invert(img)) <= diagonal(space4)
            assert compose(invert(img), img) <= diagonal(space4)


def inverse(word):
    return tuple((l, -s) for l, s in reversed(word))


class TestMembership:
    def test_single_pair_letter_relates_its_pair(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        assert word_relates([r], ((0, 1),), "a", "b")
        assert not word_relates([r], ((0, 1),), "b", "a")

    def test_empty_word_relates_only_equal_points(self, space4):
        rng = random.Random(11)
        r = random_partial_isometry(space4, rng)
        for a in space4.points:
            for b in space4.points:
                assert word_relates([r], (), a, b) == (a == b)

    def test_witness_concatenation(self, space4):
        rng = random.Random(12)
        rels = random_stock(space4, rng)
        hits = 0
        tries = 0
        while hits < 50 and tries < 4000:
            tries += 1
            u = random_word(rng, len(rels), 3)
            v = random_word(rng, len(rels), 3)
            a, b, c = (rng.choice(space4.points) for _ in range(3))
            if word_relates(rels, u, a, b) and word_relates(rels, v, b, c):
                # v after u moves a to c: image composition puts (a, c) inside
                assert word_relates(rels, v + u, a, c)
                hits += 1
        assert hits == 50


class TestOrbitDistance:
    def test_equal_points_at_length_zero(self, space4):
        rng = random.Random(13)
        r = random_partial_isometry(space4, rng)
        got = nu_truncated([r], space4.points[0], space4.points[0], 0)
        assert got.value == 0 and got.word == ()

    def test_singletons_give_the_base_distance(self):
        for seed in (1, 2, 3):
            space = random_grid_space(4, 7, seed)
            stock = singleton_stock(space)
            for a in space.points:
                for b in space.points:
                    got = nu_truncated(stock, a, b, 1)
                    assert got.value == space.distance(a, b)

    def test_longer_searches_do_not_improve_on_singletons(self):
        space = random_grid_space(3, 5, 17)
        stock = singleton_stock(space)
        for a in space.points:
            for b in space.points:
                got = nu_truncated(stock, a, b, 3)
                assert got.value == space.distance(a, b)

    def test_unreachable_pair_gives_none(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "a"),))
        got = nu_truncated([r], "a", "b", 3)
        assert got.value is None

    def test_budget_guard_carries_partial(self):
        space = random_grid_space(4, 5, 19)
        stock = singleton_stock(space)
        with pytest.raises(GuardError) as e:
            nu_truncated(stock, "p0", "p1", 3, word_budget=10)
        assert e.value.partial.words_searched > 0


class TestWeightBounds:
    def test_case3_single_pairs(self, two_point_q4):
        r = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        verdict = composition_weight_bound(3, [r, r], [1, 1])
        assert verdict in (None, True)

    def test_case1_same_relation_lands_in_diagonal(self, space4):
        rng = random.Random(14)
        for _ in range(100):
            r = random_partial_isometry(space4, rng)
            # bound is hausdorff(r, r) = 0, so the composition is diagonal
            assert composition_weight_bound(1, [r, r], [rng.choice((1, -1))]) \
                in (None, True)

    def test_random_sweep_all_cases(self, space4):
        rng = random.Random(15)
        for _ in range(600):
            rels = [random_partial_isometry(space4, rng) for _ in range(3)]
            e, dl = (rng.choice((1, -1)) for _ in range(2))
            assert composition_weight_bound(1, rels[:2], [e]) in (None, True)
            assert composition_weight_bound(2, rels, [e, dl]) in (None, True)
            assert composition_weight_bound(3, rels[:2], [e, dl]) in (None, True)

    def test_wrong_arity_is_a_validation_error(self, space4):
        rng = random.Random(17)
        r = random_partial_isometry(space4, rng)
        for case, rels, signs in ((1, [r, r], [1, 1]), (1, [], []),
                                  (2, [r, r], [1, 1]), (3, [r, r], [1])):
            with pytest.raises(ValidationError):
                composition_weight_bound(case, rels, signs)

    def test_bad_case_number(self, space4):
        rng = random.Random(16)
        r = random_partial_isometry(space4, rng)
        with pytest.raises(ValidationError):
            composition_weight_bound(4, [r, r], [1])


class TestSeminormLowerBound:
    def test_norm_dominates_distance_of_related_pairs(self):
        # whenever a word's image relates a to b, its seminorm over the
        # relation alphabet is at least d(a, b)
        rng = random.Random(17)
        checked = 0
        while checked < 500:
            space = random_grid_space(rng.randint(2, 5), 6, rng.randrange(10 ** 6))
            rels = random_stock(space, rng, size=rng.randint(1, 3))
            if not rels:
                continue
            alphabet = relation_alphabet(rels)
            w = random_word(rng, len(rels), 5)
            img = word_image(rels, w)
            if not img:
                continue
            norm = graev_norm(w, alphabet)
            for (x, y) in img:
                assert norm >= space.dist[x][y]
                checked += 1
