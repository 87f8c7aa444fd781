import random
import re
import time

import pytest

from urygrid import gh
from urygrid.errors import ValidationError
from urygrid.gh import (EnumeratedPair, feasible_at, gh_distance,
                        gh_distance_oracle, realize_in_space)
from urygrid.katetov import build_approximant
from urygrid.spaces import FiniteMetricSpace, random_grid_space


@pytest.fixture
def worked_instance():
    # two 2-point spaces over 1/10 at distances 4/10 and 8/10
    return EnumeratedPair(FiniteMetricSpace(("x1", "x2"), 10, ((0, 4), (4, 0))),
                          FiniteMetricSpace(("y1", "y2"), 10, ((0, 8), (8, 0))))


class TestFormula:
    def test_identical_spaces(self):
        s = random_grid_space(4, 8, 3)
        t = FiniteMetricSpace(tuple(f"t{i}" for i in range(4)), 8, s.dist)
        assert gh_distance(EnumeratedPair(s, t)) == (0, 8)

    def test_worked_example(self, worked_instance):
        # distortion 4, halved: prints as 2/10
        assert gh_distance(worked_instance) == (2, 10)

    def test_odd_distortion_stays_on_the_half_grid(self):
        inst = EnumeratedPair(
            FiniteMetricSpace(("x1", "x2"), 10, ((0, 4), (4, 0))),
            FiniteMetricSpace(("y1", "y2"), 10, ((0, 7), (7, 0))))
        assert gh_distance(inst) == (3, 20)

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 5)
            q = rng.randint(2, 12)
            a = random_grid_space(n, q, rng.randrange(10 ** 6))
            b = random_grid_space(n, q, rng.randrange(10 ** 6))
            b = FiniteMetricSpace(tuple(f"y{i}" for i in range(n)), q, b.dist)
            assert gh_distance(EnumeratedPair(a, b)) == gh_distance(EnumeratedPair(b, a))

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            EnumeratedPair(random_grid_space(2, 4, 0), random_grid_space(3, 4, 0))

    def test_common_grid_past_the_kernel_sentinel_is_refused(self):
        # at q = 2^30 the oracle read the doubled distances as missing edges
        with pytest.raises(ValidationError, match=r"not below 2\^29"):
            FiniteMetricSpace(("x1", "x2"), 2 ** 30, ((0, 1), (1, 0)))
        a = FiniteMetricSpace(("x1", "x2"), 2 ** 15, ((0, 1), (1, 0)))
        b = FiniteMetricSpace(("y1", "y2"), 2 ** 15 + 1, ((0, 1), (1, 0)))
        with pytest.raises(ValidationError, match=r"not below 2\^29"):
            EnumeratedPair(a, b)

    def test_mixed_denominators_rescale(self):
        a = FiniteMetricSpace(("x",), 2, ((0,),))
        b = FiniteMetricSpace(("y",), 3, ((0,),))
        assert EnumeratedPair(a, b).denominator == 6


class TestOracle:
    def test_identical_spaces_feasible_at_zero(self):
        s = random_grid_space(3, 6, 7)
        t = FiniteMetricSpace(("u", "v", "w"), 6, s.dist)
        inst = EnumeratedPair(s, t)
        ok, _ = feasible_at(inst, 0)
        assert ok
        assert gh_distance_oracle(inst) == (0, 6)

    def test_worked_example(self, worked_instance):
        assert gh_distance_oracle(worked_instance) == (2, 10)

    def test_infeasibility_witness_below_the_value(self, worked_instance):
        # at any cross value below the answer, the closure contracts a side
        ok, witness = feasible_at(worked_instance, 3)  # 3 half-units < 4
        assert not ok and witness is not None

    @pytest.mark.parametrize("t2", [1.5, True, 100, 9, -1, None])
    def test_cross_distance_off_the_half_grid_is_refused(self, t2):
        # x at 2/4 and y at 3/4: the half grid runs over [0, 8]. Unchecked,
        # the first four read as feasible, -1 contracted x to a negative
        # diagonal and None ended in a TypeError
        inst = EnumeratedPair(FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0))),
                              FiniteMetricSpace(("c", "d"), 4, ((0, 3), (3, 0))))
        with pytest.raises(ValidationError, match=r"integer in \[0, 8\] half-units"):
            feasible_at(inst, t2)

    def test_feasibility_is_monotone_in_t(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            q = rng.randint(2, 8)
            a = random_grid_space(n, q, rng.randrange(10 ** 6))
            b = random_grid_space(n, q, rng.randrange(10 ** 6))
            b = FiniteMetricSpace(tuple(f"y{i}" for i in range(n)), q, b.dist)
            inst = EnumeratedPair(a, b)
            feas = [feasible_at(inst, t2)[0] for t2 in range(2 * q + 1)]
            assert feas == sorted(feas)  # False... then True...

    def test_agrees_with_formula_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(1, 5)
            q = rng.randint(2, 14)
            a = random_grid_space(n, q, rng.randrange(10 ** 6))
            b = random_grid_space(n, q, rng.randrange(10 ** 6))
            b = FiniteMetricSpace(tuple(f"y{i}" for i in range(n)), q, b.dist)
            inst = EnumeratedPair(a, b)
            assert gh_distance(inst) == gh_distance_oracle(inst)

    def test_cost_does_not_grow_with_the_grid(self):
        # the oracle bisects the 2q + 1 cross distances, one closure per
        # halving; a scan of them took about a second at q = 10^5
        q = 2 ** 28
        inst = EnumeratedPair(FiniteMetricSpace(("x1", "x2"), q, ((0, 1), (1, 0))),
                              FiniteMetricSpace(("y1", "y2"), q, ((0, q), (q, 0))))
        start = time.perf_counter()
        assert gh_distance_oracle(inst) == gh_distance(inst) == (q - 1, 2 * q)
        assert time.perf_counter() - start < 1.0

    def test_no_feasible_cross_distance_is_an_error(self, monkeypatch, worked_instance):
        monkeypatch.setattr(gh, "feasible_at", lambda inst, t2: (False, None))
        with pytest.raises(ValidationError, match="no feasible cross distance"):
            gh_distance_oracle(worked_instance)


class TestRealize:
    def test_anchors_realize_their_own_pattern(self):
        s = random_grid_space(5, 6, 17)
        target = s.restrict(("p1", "p3"))
        got = realize_in_space(s, ("p1", "p3"), target, 0)
        assert got == ("p1", "p3")

    def test_undersized_space_reports_none(self):
        s = FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0)))
        target = FiniteMetricSpace(("t1", "t2"), 4, ((0, 1), (1, 0)))
        # no pair at distance 1/4 exists; hypothesis satisfied with eps = 2
        assert realize_in_space(s, ("a", "b"), target, 2) is None

    def test_hypothesis_violation_is_an_error(self):
        s = FiniteMetricSpace(("a", "b"), 4, ((0, 4), (4, 0)))
        target = FiniteMetricSpace(("t1", "t2"), 4, ((0, 1), (1, 0)))
        with pytest.raises(ValidationError):
            realize_in_space(s, ("a", "b"), target, 1)

    @pytest.mark.parametrize("eps", ["1", -1, 1.0, True, None])
    def test_eps_must_be_a_non_negative_int(self, eps):
        s = FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0)))
        target = FiniteMetricSpace(("t1", "t2"), 4, ((0, 2), (2, 0)))
        with pytest.raises(ValidationError, match=re.escape(
                f"eps must be an integer >= 0, got {eps!r}")):
            realize_in_space(s, ("a", "b"), target, eps)

    def test_closed_approximant_realizes_single_targets(self):
        seed = FiniteMetricSpace(("a",), 2, ((0,),))
        closed = build_approximant(seed, 2, 2, 64).space
        # any 1-point target within eps of an anchor: injectivity guarantees it
        target = FiniteMetricSpace(("t",), 2, ((0,),))
        for anchor in closed.points[:6]:
            got = realize_in_space(closed, (anchor,), target, 1)
            assert got is not None
            assert closed.distance(anchor, got[0]) <= 1
