import random

import pytest

from urygrid.bikatetov import (constant_zero, embed_isometry,
                               enumerate_bikatetov, product, random_bikatetov,
                               routing_idempotent)
from urygrid.errors import GuardError, ValidationError
from urygrid.katetov import iso_group, point_function
from urygrid.relations import (action_graph, act, compose, enumerate_carrier,
                               invert, is_equivalence, isometry_graphs,
                               matrix_of_relation, relation_of_matrix,
                               restriction_equivalence)
from urygrid.spaces import FiniteMetricSpace, random_grid_space


def inverse_perm(g):
    return tuple(sorted(range(len(g)), key=g.__getitem__))


class TestCarrier:
    def test_single_point_carrier_is_the_grid(self):
        space = FiniteMetricSpace(("a",), 2, ((0,),))
        assert enumerate_carrier(space).members == ((0,), (1,), (2,))

    def test_two_point_count(self, two_point_q2):
        assert enumerate_carrier(two_point_q2).size == 7

    def test_distance_rows_are_members(self):
        rng = random.Random(1)
        for _ in range(10):
            space = random_grid_space(rng.randint(1, 4), 3, rng.randrange(10 ** 6))
            carrier = enumerate_carrier(space)
            for p in space.points:
                carrier.index(point_function(space, p).total_values())

    def test_members_are_exactly_the_nonexpanding_functions(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        brute = [(u, v) for u in range(3) for v in range(3) if abs(u - v) <= 1]
        assert sorted(carrier.members) == sorted(brute)

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_carrier(random_grid_space(8, 12, 0))

    def test_a_carrier_of_every_function_lists_within_the_budget(self):
        # 11 points pairwise at distance 2 over q=2: every grid function is
        # non-expanding, so 3^11 = 177,147 members from 3 + 9 + ... + 3^11 =
        # 265,719 candidates, under the 2 (q+1)^n any carrier walk stays below
        n = 11
        space = FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), 2,
                                  tuple(tuple(0 if i == j else 2 for j in range(n))
                                        for i in range(n)))
        assert enumerate_carrier(space).size == 3 ** n


class TestAction:
    def test_identity_acts_trivially(self, triangle_q2):
        carrier = enumerate_carrier(triangle_q2)
        for i in range(carrier.size):
            assert act(carrier, (0, 1, 2), i) == i

    def test_swap_moves_point_rows(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        ha = carrier.index(point_function(two_point_q2, "a").total_values())
        hb = carrier.index(point_function(two_point_q2, "b").total_values())
        assert act(carrier, (1, 0), ha) == hb

    def test_action_law_on_the_triangle(self, triangle_q2):
        carrier = enumerate_carrier(triangle_q2)
        group = iso_group(triangle_q2)
        for g in group:
            for h in group:
                gh = tuple(g[h[i]] for i in range(3))
                for i in range(carrier.size):
                    assert act(carrier, gh, i) == act(carrier, g, act(carrier, h, i))

    @pytest.mark.parametrize("perm", [(0, 0), (1, 1), (0,), (True, False), (5, 0),
                                      (0.0, 1.0), 5])
    def test_non_permutations_are_refused(self, two_point_q2, perm):
        carrier = enumerate_carrier(two_point_q2)
        with pytest.raises(ValidationError):
            act(carrier, perm, 0)
        with pytest.raises(ValidationError):
            action_graph(carrier, perm)

    @pytest.mark.parametrize("member_idx", [1.0, True, -1, 7])
    def test_member_indices_outside_the_carrier_are_refused(self, two_point_q2, member_idx):
        carrier = enumerate_carrier(two_point_q2)  # 7 members
        with pytest.raises(ValidationError, match="member index"):
            act(carrier, (1, 0), member_idx)

    def test_permutations_that_are_not_isometries_are_refused(self):
        space = FiniteMetricSpace(("a", "b", "c"), 2, ((0, 1, 2), (1, 0, 2), (2, 2, 0)))
        carrier = enumerate_carrier(space)
        assert action_graph(carrier, (1, 0, 2)) != action_graph(carrier, (0, 1, 2))
        with pytest.raises(ValidationError, match="does not preserve"):
            act(carrier, (2, 1, 0), 0)
        with pytest.raises(ValidationError, match="does not preserve"):
            action_graph(carrier, (2, 1, 0))


class TestGraphEmbedding:
    def test_identity_graph_is_the_diagonal(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        assert action_graph(carrier, (0, 1)) == \
            frozenset((i, i) for i in range(carrier.size))

    def test_composition_morphism(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        j_swap = action_graph(carrier, (1, 0))
        assert compose(j_swap, j_swap) == action_graph(carrier, (0, 1))

    def test_inverse_morphism_exhaustive_on_the_triangle(self, triangle_q2):
        carrier = enumerate_carrier(triangle_q2)
        for g in iso_group(triangle_q2):
            assert invert(action_graph(carrier, g)) == \
                action_graph(carrier, inverse_perm(g))


    def test_isometry_graphs_match_a_list_scan(self):
        # 4-point equilateral at the diameter: all 7^4 functions are members
        space = FiniteMetricSpace(tuple("abcd"), 6, tuple(
            tuple(0 if i == j else 6 for j in range(4)) for i in range(4)))
        carrier = enumerate_carrier(space)
        members = carrier.members
        assert carrier.size == 2401
        twin = {}
        for g in iso_group(space):
            inv = inverse_perm(g)
            twin[g] = frozenset((i, members.index(tuple(f[x] for x in inv)))
                                for i, f in enumerate(members))
        assert len(twin) == 24
        assert isometry_graphs(carrier) == twin


class TestMatrixOfRelation:
    def test_identity_graph_maps_to_the_metric(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        assert matrix_of_relation(carrier, action_graph(carrier, (0, 1))) == \
            two_point_q2.dist

    def test_action_graphs_map_to_embedded_isometries(self, triangle_q2):
        carrier = enumerate_carrier(triangle_q2)
        for g in iso_group(triangle_q2):
            assert matrix_of_relation(carrier, action_graph(carrier, g)) == \
                embed_isometry(triangle_q2, g).entries

    def test_full_relation_maps_to_the_constant(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        full = frozenset((i, j) for i in range(carrier.size)
                         for j in range(carrier.size))
        assert matrix_of_relation(carrier, full) == constant_zero(two_point_q2).entries

    def test_empty_relation_rejected(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        with pytest.raises(ValidationError):
            matrix_of_relation(carrier, frozenset())


class TestRoundTrip:
    @pytest.mark.parametrize("q", [2, 3])
    def test_exhaustive_two_points(self, q):
        for d in range(1, q + 1):
            space = FiniteMetricSpace(("a", "b"), q, ((0, d), (d, 0)))
            carrier = enumerate_carrier(space)
            for f in enumerate_bikatetov(space):
                assert matrix_of_relation(carrier, relation_of_matrix(carrier, f)) \
                    == f.entries

    def test_random_three_points(self):
        rng = random.Random(7)
        for _ in range(25):
            space = random_grid_space(3, 3, rng.randrange(10 ** 6))
            carrier = enumerate_carrier(space)
            f = random_bikatetov(space, rng)
            assert matrix_of_relation(carrier, relation_of_matrix(carrier, f)) \
                == f.entries

    def test_constant_matrix_relates_everything(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        rel = relation_of_matrix(carrier, constant_zero(two_point_q2))
        assert len(rel) == carrier.size ** 2


class TestRestrictionEquivalence:
    def test_routing_idempotents_map_to_restriction_relations(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        for subset in ((), ("a",), ("b",), ("a", "b")):
            assert relation_of_matrix(carrier, routing_idempotent(two_point_q2, subset)) \
                == restriction_equivalence(carrier, subset)

    def test_restriction_relations_are_equivalences(self, triangle_q2):
        carrier = enumerate_carrier(triangle_q2)
        for subset in ((), ("a",), ("a", "b"), ("a", "b", "c")):
            assert is_equivalence(carrier, restriction_equivalence(carrier, subset))


class TestSemigroupConsistency:
    def test_graph_composition_tracks_matrix_products(self, two_point_q2):
        carrier = enumerate_carrier(two_point_q2)
        group = iso_group(two_point_q2)
        for g in group:
            for h in group:
                lhs = matrix_of_relation(carrier, compose(action_graph(carrier, g),
                                                          action_graph(carrier, h)))
                rhs = product(embed_isometry(two_point_q2, g),
                              embed_isometry(two_point_q2, h)).entries
                assert lhs == rhs

    def test_same_on_the_triangle(self, triangle_q2):
        carrier = enumerate_carrier(triangle_q2)
        group = iso_group(triangle_q2)
        for g in group:
            for h in group:
                lhs = matrix_of_relation(carrier, compose(action_graph(carrier, g),
                                                          action_graph(carrier, h)))
                rhs = product(embed_isometry(triangle_q2, g),
                              embed_isometry(triangle_q2, h)).entries
                assert lhs == rhs
