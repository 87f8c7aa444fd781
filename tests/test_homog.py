import json
import random
import re
import time

import pytest

from urygrid import homog
from urygrid.cli import main
from urygrid.errors import GuardError, ValidationError
from urygrid.graev import WeightedAlphabet, graev_norm, reduce_word
from urygrid.homog import (PartialIsometryRelation, composition_weight_bound,
                           compose, diagonal, hausdorff_distance, invert,
                           nu_truncated, random_partial_isometry,
                           relation_alphabet, relation_witness,
                           validate_relation, weight, word_image, word_relates)
from urygrid.spaces import FiniteMetricSpace, random_grid_space

from conftest import random_word, with_doubled_point


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

    @pytest.mark.parametrize("pairs, message", [
        ((("a", "b"), (0, "b")), "unknown point 0"),
        ((("a", "b", "b"),), "is not two point names"),
        (((["a"], "b"),), r"unknown point \['a'\]"),
    ], ids=["mixed-types", "three-entries", "list-name"])
    def test_malformed_pairs_are_validation_errors(self, two_point_q4, pairs, message):
        with pytest.raises(ValidationError, match=message):
            PartialIsometryRelation(two_point_q4, pairs)


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

    def test_relations_over_different_spaces(self, two_point_q4):
        y = random_grid_space(3, 4, 5)
        r_x = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        r_y = PartialIsometryRelation(y, ((y.points[0], y.points[1]),))
        for call in (lambda: word_image([r_x, r_y], ((0, 1), (1, 1))),
                     lambda: word_relates([r_x, r_y], ((1, 1),), "a", "b"),
                     lambda: relation_alphabet([r_x, r_y])):
            with pytest.raises(ValidationError, match="different spaces"):
                call()

    @pytest.mark.parametrize("word, message", [
        (((-1, 1),), "letter -1"), (((5, 1),), "letter 5"), (((0, 2),), "sign 2"),
        (((0, 1, 1),), "not a sequence")])
    def test_malformed_words_are_validation_errors(self, two_point_q4, word, message):
        # a negative letter used to index from the end, sign 2 acted as +1
        # and letter 5 raised IndexError
        r = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        with pytest.raises(ValidationError, match=message):
            word_image([r], word)
        with pytest.raises(ValidationError, match=message):
            word_relates([r], word, "a", "b")

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

    @pytest.mark.parametrize("max_len", [1.5, "3", True, -1, None])
    def test_max_len_must_be_a_non_negative_int(self, two_point_q4, max_len):
        r = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        with pytest.raises(ValidationError, match=re.escape(
                f"max_len must be an integer >= 0, got {max_len!r}")):
            nu_truncated([r], "a", "b", max_len)

    def test_budget_guard_carries_partial(self, monkeypatch):
        monkeypatch.setattr(homog, "WORD_BUDGET", 10)
        space = random_grid_space(4, 5, 19)
        stock = singleton_stock(space)
        with pytest.raises(GuardError) as e:
            nu_truncated(stock, "p0", "p1", 3)
        assert e.value.partial.words_searched > 0

    # few words, but each hit's norm costs O(L^3): a long max length must
    # buy no more work than the budget, charged for the norms too
    LONG_STOCK = {"space": {"points": ["a", "b", "c"], "denominator": 2,
                            "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                  "relations": [{"name": "s", "pairs": [["a", "b"]]},
                                {"name": "t", "pairs": [["b", "c"], ["a", "b"]]}]}

    @pytest.mark.parametrize("max_len", [40, 10 ** 6])
    def test_norm_work_is_charged_to_the_budget(self, tmp_path, capsys, max_len):
        path = tmp_path / "stock.json"
        path.write_text(json.dumps(self.LONG_STOCK))
        start = time.perf_counter()
        code = main(["homog", "nu", str(path), "--from", "a", "--to", "c",
                     "--max-len", str(max_len)])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        if max_len == 40:
            assert (code, out, err) == (0, "2/2  via 't s'\n", "")
        else:
            assert code == 2 and out == ""
            used = re.fullmatch(r"refused: word search used (\d+) steps \(\d+ words, \d+ "
                                r"for norms\), limit 2000000\n", err)
            assert used and int(used[1]) > homog.WORD_BUDGET


def nu_by_word_images(rels, a, b, max_len):
    """Twin of nu_truncated: every reduced word up to max_len in
    breadth-first order, each decided on its own by its frozenset image;
    like nu_truncated it extends only the words whose image is nonempty.
    Returns (value, word, words_searched)."""
    alphabet = relation_alphabet(rels)
    letters = [(idx, sign) for idx in range(len(rels)) for sign in (1, -1)]
    best = best_word = None
    searched = 0
    level = [()]
    for _ in range(max_len + 1):
        alive = []
        for word in level:
            searched += 1
            if word_relates(rels, word, a, b):
                norm = graev_norm(word, alphabet)
                if best is None or (norm, word) < (best, best_word):
                    best, best_word = norm, word
            if word_image(rels, word):
                alive.append(word)
        level = [w + (letter,) for w in alive for letter in letters
                 if not w or w[-1] != (letter[0], -letter[1])]
    return best, best_word, searched


def random_relation_stock(space, rng, size):
    """Stock relations of up to three random pairs each, pairwise at positive
    Hausdorff distance; over a pseudometric space these need not be
    functions."""
    rels = []
    for _ in range(50):
        if len(rels) == size:
            break
        r = PartialIsometryRelation(space, tuple(
            (rng.choice(space.points), rng.choice(space.points))
            for _ in range(rng.randint(1, 3))))
        if validate_relation(r) and all(hausdorff_distance(r, s) for s in rels):
            rels.append(r)
    return rels


class TestOrbitDistanceTwin:
    def test_non_functional_relation_over_a_pseudometric(self):
        space = FiniteMetricSpace(("a", "b", "c"), 2, ((0, 0, 1), (0, 0, 1), (1, 1, 0)),
                                  pseudo=True)
        fork = PartialIsometryRelation(space, (("a", "a"), ("a", "b")))
        rels = [fork, PartialIsometryRelation(space, (("c", "c"),))]
        got = nu_truncated(rels, "a", "b", 2)
        assert (got.value, got.word, got.words_searched) == (0, ((0, 1),), 17)
        assert (got.value, got.word, got.words_searched) == nu_by_word_images(rels, "a", "b", 2)

    def test_matches_the_word_image_twin(self):
        rng = random.Random(23)
        kinds = set()
        for case in range(240):
            space = random_grid_space(rng.randint(1, 4), rng.randint(1, 6),
                                      rng.randrange(10 ** 6))
            if case % 2:
                space = with_doubled_point(space, rng)
            if case % 3:
                rels = random_relation_stock(space, rng, rng.randint(1, 3))
            else:
                # over a pseudometric, distinct pair sets can still be at
                # Hausdorff distance 0, which the alphabet refuses
                rels = []
                for r in random_stock(space, rng, size=rng.randint(1, 3)):
                    if all(hausdorff_distance(r, s) for s in rels):
                        rels.append(r)
            a, b = rng.choice(space.points), rng.choice(space.points)
            max_len = case % 4
            got = nu_truncated(rels, a, b, max_len)
            assert (got.value, got.word, got.words_searched) == \
                nu_by_word_images(rels, a, b, max_len)
            kinds.add((space.pseudo, got.value is None, max_len,
                       max(len(r.pairs) for r in rels) > 1,
                       any(len({x for x, _ in r.pairs}) < len(r.pairs) for r in rels)))
        # both space kinds, reached and unreached targets, every length,
        # single- and multi-pair relations, and relations that are not
        # functions all occur
        for column, values in enumerate(({True, False},) * 2 + ({0, 1, 2, 3},)
                                        + ({True, False},) * 2):
            assert {k[column] for k in kinds} == values


class TestTrustedAlphabet:
    """relation_alphabet builds without the alphabet's own revalidation; the
    validating constructor must accept and reproduce each alphabet."""

    def test_validating_constructor_agrees(self):
        rng = random.Random(29)
        pseudo = set()
        for case in range(200):
            space = random_grid_space(rng.randint(1, 5), rng.randint(1, 6),
                                      rng.randrange(10 ** 6))
            if case % 2:
                space = with_doubled_point(space, rng)
            rels = random_relation_stock(space, rng, rng.randint(1, 6))
            names = None if case % 3 else [f"rel{i}" for i in range(len(rels))]
            alphabet = relation_alphabet(rels, names)
            for part in (alphabet.letters, alphabet.dist, alphabet.weights):
                assert type(part) is tuple
            assert all(type(row) is tuple for row in alphabet.dist)
            rebuilt = WeightedAlphabet(alphabet.letters, alphabet.denominator,
                                       alphabet.dist, alphabet.weights)
            assert rebuilt == alphabet
            assert alphabet.flat() == rebuilt.flat() == sum(alphabet.dist, ())
            assert alphabet.weights == tuple(weight(r) for r in rels)
            assert alphabet.dist == tuple(tuple(hausdorff_distance(r, t) for t in rels)
                                          for r in rels)
            pseudo.add(space.pseudo)
        assert pseudo == {False, True}

    @pytest.mark.parametrize("names, message", [
        (["x", "x"], "unique"), (["x"], "1 names given for 2 relations"),
        (["x", "y", "z"], "3 names given"), (["x", ""], "nonempty string"),
        (["x", 7], "nonempty string")])
    def test_bad_names_are_validation_errors(self, two_point_q4, names, message):
        rels = [PartialIsometryRelation(two_point_q4, (("a", "b"),)),
                PartialIsometryRelation(two_point_q4, (("b", "a"),))]
        with pytest.raises(ValidationError, match=message):
            relation_alphabet(rels, names)
        assert relation_alphabet(rels, ["x", "y"]).letters == ("x", "y")


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

    def test_relations_over_different_spaces(self, two_point_q4):
        y = random_grid_space(3, 4, 5)
        r_x = PartialIsometryRelation(two_point_q4, (("a", "b"),))
        r_y = PartialIsometryRelation(y, ((y.points[0], y.points[1]),))
        for case, rels, signs in ((1, [r_y, r_x], [1]), (2, [r_x, r_y, r_x], [1, 1]),
                                  (3, [r_y, r_x], [1, 1])):
            with pytest.raises(ValidationError, match="different spaces"):
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
