import random

import pytest

from urygrid.bikatetov import BiKatetovMatrix
from urygrid.errors import ValidationError
from urygrid.graev import WeightedAlphabet
from urygrid.homog import PartialIsometryRelation
from urygrid.katetov import KatetovFunction
from urygrid.spaces import (FiniteMetricSpace, PartialSpec, Violation, _new_row_fits,
                            amalgam, quotient_pseudometric, random_grid_space,
                            shortest_path_completion, validate_space)


class TestValidate:
    def test_smallest_nondegenerate_space_is_valid(self):
        assert validate_space(["a", "b"], 2, [[0, 1], [1, 0]]).ok

    def test_triangle_violation_with_witness(self):
        report = validate_space(["a", "b", "c"], 4,
                                [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        kinds = {v.kind for v in report.problems}
        assert kinds == {"triangle"}
        witnesses = {v.witness for v in report.problems}
        assert (0, 2, 1) in witnesses  # d(a,c) > d(a,b) + d(b,c)

    def test_asymmetric_entry(self):
        report = validate_space(["a", "b"], 4, [[0, 1], [2, 0]])
        assert any(v.kind == "symmetry" for v in report.problems)

    def test_structural_errors_are_distinct_from_axioms(self):
        report = validate_space(["a", "b"], 4, [[0, 1]])
        assert report.structural and not report.axiom_violations
        report = validate_space(["a", "b"], 4, [[0, 9], [9, 0]])
        assert all(v.kind == "range" for v in report.problems)
        report = validate_space(["a", "b"], 4, [[0, 1.5], [1.5, 0]])
        assert report.structural

    def test_zero_off_diagonal_needs_pseudo_flag(self):
        assert not validate_space(["a", "b"], 4, [[0, 0], [0, 0]]).ok
        assert validate_space(["a", "b"], 4, [[0, 0], [0, 0]], pseudo=True).ok

    @pytest.mark.parametrize("pseudo", ["false", 1, [0]], ids=["str", "int", "list"])
    def test_pseudo_must_be_a_bool(self, pseudo):
        report = validate_space(["a", "b"], 2, [[0, 0], [0, 0]], pseudo)
        assert [v.kind for v in report.problems] == ["shape"]
        assert "pseudo must be True or False" in str(report)
        with pytest.raises(ValidationError, match="pseudo must be True or False"):
            FiniteMetricSpace(("a", "b"), 2, ((0, 0), (0, 0)), pseudo)
        with pytest.raises(ValidationError, match="pseudo must be True or False"):
            FiniteMetricSpace(("a",), 2, ((0,),)).with_point("b", (1,), pseudo)

    def test_bool_pseudo_is_unchanged(self):
        assert validate_space(["a", "b"], 2, [[0, 0], [0, 0]], True).ok
        assert [v.kind for v in validate_space(["a", "b"], 2, [[0, 0], [0, 0]], False).problems] \
            == ["identity"]
        assert FiniteMetricSpace(("a", "b"), 2, ((0, 0), (0, 0)), True).pseudo is True
        assert FiniteMetricSpace(("a", "b"), 2, ((0, 1), (1, 0)), False).pseudo is False

    def test_nonzero_diagonal(self):
        report = validate_space(["a"], 4, [[1]])
        assert any(v.kind == "diagonal" for v in report.problems)

    def test_constructor_raises_on_invalid(self):
        with pytest.raises(ValidationError):
            FiniteMetricSpace(("a", "b"), 4, ((0, 1), (2, 0)))


class TestCompletion:
    def test_already_metric_is_unchanged(self):
        entries = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        spec = PartialSpec(("a", "b", "c"), 4, entries)
        assert shortest_path_completion(spec).dist == entries

    def test_single_chain(self):
        spec = PartialSpec(("a", "b", "c"), 4,
                           ((0, 1, None), (1, 0, 1), (None, 1, 0)))
        out = shortest_path_completion(spec)
        assert out.distance("a", "c") == 2

    def test_chain_capped_at_denominator(self):
        spec = PartialSpec(("a", "b", "c"), 4,
                           ((0, 3, None), (3, 0, 3), (None, 3, 0)))
        out = shortest_path_completion(spec)
        assert out.distance("a", "c") == 4

    def test_asymmetric_closure_is_refused(self):
        # each edge is given one way only, so the closure is not symmetric:
        # d(a, c) = 2 through b but d(c, a) = 4; the completion must keep
        # validating its result to refuse this
        spec = PartialSpec(("a", "b", "c"), 4,
                           ((0, 1, None), (None, 0, 1), (4, None, 0)))
        with pytest.raises(ValidationError, match=r"d\(a,c\) = 2 but d\(c,a\) = 4"):
            shortest_path_completion(spec)

    @pytest.mark.parametrize("entries", [
        ((0, True), (True, 0)), ((0, 1.5), (1.5, 0)), ((0, None), (5, 0))])
    def test_off_grid_entry_is_rejected(self, entries):
        with pytest.raises(ValidationError, match="not an integer"):
            PartialSpec(("a", "b"), 2, entries)

    @pytest.mark.parametrize("q", [0, True, "2", 1.0])
    def test_denominator_must_be_a_positive_integer(self, q):
        with pytest.raises(ValidationError, match="denominator"):
            PartialSpec(("a", "b"), q, ((0, None), (None, 0)))
        report = validate_space(["a", "b"], q, [[0, 1], [1, 0]])
        assert [v.kind for v in report.problems] == ["shape"]
        with pytest.raises(ValidationError, match="denominator"):
            FiniteMetricSpace(("a",), q, ((0,),))

    @pytest.mark.parametrize("q", [2 ** 29, 2 ** 30, 2 ** 31])
    def test_denominator_must_stay_below_the_kernel_sentinel(self, q):
        with pytest.raises(ValidationError, match=r"not below 2\^29"):
            PartialSpec(("a", "b"), q, ((0, q // 2), (q // 2, 0)))
        assert "not below 2^29" in str(validate_space(["a", "b"], q, [[0, 1], [1, 0]]))
        with pytest.raises(ValidationError, match=r"not below 2\^29"):
            random_grid_space(2, q, 0)

    def test_largest_denominator_completes_exactly(self):
        q = 2 ** 29 - 1
        spec = PartialSpec(("a", "b", "c"), q, ((0, q, None), (q, 0, 1), (None, 1, 0)))
        assert shortest_path_completion(spec).dist == ((0, q, q), (q, 0, 1), (q, 1, 0))

    def test_disconnected_names_unreachable_pair(self):
        spec = PartialSpec(("a", "b"), 4, ((0, None), (None, 0)))
        with pytest.raises(ValidationError) as e:
            shortest_path_completion(spec)
        assert "a" in str(e.value) and "b" in str(e.value)

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 6)
            q = rng.randint(2, 9)
            entries = [[None] * n for _ in range(n)]
            for i in range(n):
                entries[i][i] = 0
            # a random connected partial specification: a spanning path plus noise
            order = list(range(n))
            rng.shuffle(order)
            for i, j in zip(order, order[1:]):
                entries[i][j] = entries[j][i] = rng.randint(1, q)
            for _ in range(n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j and entries[i][j] is None:
                    entries[i][j] = entries[j][i] = rng.randint(1, q)
            once = shortest_path_completion(
                PartialSpec(tuple(f"p{i}" for i in range(n)), q,
                            tuple(tuple(r) for r in entries)))
            twice = shortest_path_completion(
                PartialSpec(once.points, q, once.dist))
            assert once.dist == twice.dist

    def test_quadrangle_inequality_on_completions(self):
        rng = random.Random(9)
        for _ in range(20):
            space = random_grid_space(6, 10, rng.randrange(10 ** 6))
            for _ in range(40):
                i, j, k, l = rng.sample(range(6), 4)
                sides = [space.dist[i][j], space.dist[j][k],
                         space.dist[k][l], space.dist[l][i]]
                for s in range(4):
                    assert sides[s] <= sum(sides) - sides[s]


class TestQuotient:
    def test_metric_input_unchanged(self, two_point_q4):
        result = quotient_pseudometric(two_point_q4)
        assert result.space == two_point_q4
        assert result.classes == (("a",), ("b",))

    def test_forced_identification(self):
        space = FiniteMetricSpace(("a", "b", "c"), 4,
                                  ((0, 0, 2), (0, 0, 2), (2, 2, 0)), pseudo=True)
        result = quotient_pseudometric(space)
        assert result.space.points == ("a", "c")
        assert result.space.distance("a", "c") == 2
        assert dict(result.projection)["b"] == "a"

    def test_all_zero_collapses_to_a_point(self):
        space = FiniteMetricSpace(("a", "b", "c"), 4,
                                  ((0, 0, 0), (0, 0, 0), (0, 0, 0)), pseudo=True)
        result = quotient_pseudometric(space)
        assert result.space.n == 1

    def test_quotient_is_always_a_metric(self):
        rng = random.Random(3)
        for _ in range(20):
            base = random_grid_space(5, 6, rng.randrange(10 ** 6))
            rows = [list(r) for r in base.dist]
            # zero out one off-diagonal pair to force an identification
            i, j = rng.sample(range(5), 2)
            for k in range(5):
                rows[i][k] = rows[k][i] = rows[j][k]
            rows[i][i] = 0
            pseudo = FiniteMetricSpace(base.points, 6,
                                       tuple(tuple(r) for r in rows), pseudo=True)
            out = quotient_pseudometric(pseudo).space
            assert not out.pseudo


class TestAmalgam:
    def test_identity_glue_returns_the_space(self, two_point_q4):
        out = amalgam(two_point_q4, two_point_q4, {"a": "a", "b": "b"})
        assert out.points == two_point_q4.points
        assert out.dist == two_point_q4.dist

    def test_chain_through_glued_point(self):
        x = FiniteMetricSpace(("a", "m"), 4, ((0, 1), (1, 0)))
        y = FiniteMetricSpace(("m", "b"), 4, ((0, 1), (1, 0)))
        out = amalgam(x, y, {"m": "m"})
        assert out.distance("a", "b") == 2

    def test_chain_capped(self):
        x = FiniteMetricSpace(("a", "m"), 4, ((0, 3), (3, 0)))
        y = FiniteMetricSpace(("m", "b"), 4, ((0, 3), (3, 0)))
        out = amalgam(x, y, {"m": "m"})
        assert out.distance("a", "b") == 4

    def test_glue_must_preserve_distances(self):
        x = FiniteMetricSpace(("a", "b"), 4, ((0, 1), (1, 0)))
        y = FiniteMetricSpace(("u", "v"), 4, ((0, 2), (2, 0)))
        with pytest.raises(ValidationError) as e:
            amalgam(x, y, {"a": "u", "b": "v"})
        assert e.value.witness is not None

    def test_restrictions_embed_isometrically(self):
        rng = random.Random(21)
        for _ in range(25):
            x = random_grid_space(rng.randint(2, 5), 8, rng.randrange(10 ** 6))
            y = random_grid_space(rng.randint(2, 5), 8, rng.randrange(10 ** 6))
            # glue a random pair of same-distance point pairs when one exists
            glue = {}
            for a1 in range(x.n):
                for a2 in range(a1 + 1, x.n):
                    for b1 in range(y.n):
                        for b2 in range(y.n):
                            if b1 != b2 and x.dist[a1][a2] == y.dist[b1][b2]:
                                glue = {x.points[a1]: y.points[b1],
                                        x.points[a2]: y.points[b2]}
                                break
                        if glue:
                            break
                    if glue:
                        break
                if glue:
                    break
            if not glue:
                glue = {x.points[0]: y.points[0]}
            y = FiniteMetricSpace(tuple(f"y_{p}" if p not in glue.values() else p
                                        for p in y.points), 8, y.dist)
            out = amalgam(x, y, glue)
            for p in x.points:
                for q_ in x.points:
                    assert out.distance(p, q_) == x.distance(p, q_)
            inv = {v: k for k, v in glue.items()}
            for p in y.points:
                for q_ in y.points:
                    pn = inv.get(p, p)
                    qn = inv.get(q_, q_)
                    assert out.distance(pn, qn) == y.distance(p, q_)

    def test_empty_glue_fills_with_cap(self):
        x = FiniteMetricSpace(("a",), 4, ((0,),))
        y = FiniteMetricSpace(("b",), 4, ((0,),))
        out = amalgam(x, y, {})
        assert out.distance("a", "b") == 4


class TestRandomGridSpace:
    def test_single_point(self):
        space = random_grid_space(1, 4, 0)
        assert space.n == 1 and space.dist == ((0,),)

    def test_deterministic_per_seed(self):
        assert random_grid_space(5, 8, 1) == random_grid_space(5, 8, 1)
        assert random_grid_space(5, 8, 1) != random_grid_space(5, 8, 2)

    def test_output_validates(self):
        space = random_grid_space(5, 8, 1)
        assert validate_space(space.points, 8, space.dist).ok

    @pytest.mark.parametrize("n, q", [(True, 4), (0, 4), (2.0, 4), (2, 0), (2, True)])
    def test_sizes_must_be_positive_integers(self, n, q):
        with pytest.raises(ValidationError):
            random_grid_space(n, q, 0)

    def test_many_seeds_validate(self):
        for seed in range(40):
            space = random_grid_space(6, 11, seed)
            assert validate_space(space.points, 11, space.dist).ok


def grown_matrix(space, row):
    return ([list(old) + [row[i]] for i, old in enumerate(space.dist)]
            + [list(row) + [0]])


def assert_with_point_matches_full_scan(space, row, pseudo):
    """with_point succeeds exactly when validate_space passes the grown
    matrix, and otherwise raises with that report and its message."""
    grown = grown_matrix(space, row)
    points = space.points + ("new",)
    effective = space.pseudo if pseudo is None else pseudo
    expected = validate_space(points, space.denominator, grown, effective)
    try:
        out = space.with_point("new", row, pseudo)
    except ValidationError as e:
        assert e.witness == expected
        assert str(e) == f"invalid space: {expected}"
        return expected
    assert expected.ok
    assert out == FiniteMetricSpace(points, space.denominator, grown, effective)
    assert out.index("new") == space.n
    return expected


class TestWithPoint:
    def test_report_matches_full_scan_on_random_rows(self):
        rng = random.Random(30)
        kinds = {}
        for _ in range(1500):
            n, q = rng.randint(1, 10), rng.randint(1, 5)
            # a valid row: the last point of a random (n+1)-point space
            big = random_grid_space(n + 1, q, rng.randrange(10 ** 6))
            space = big.restrict(big.points[:n])
            row = list(big.dist[n][:n])
            if rng.random() < 0.3:
                # a pseudometric with a doubled point to grow from
                space = FiniteMetricSpace(space.points, q, space.dist, pseudo=True)
                twin = rng.randrange(n)
                space = space.with_point("twin", space.dist[twin], pseudo=True)
                row.append(row[twin])
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                i = rng.randrange(len(row))
                row[i] = rng.choice((
                    rng.randint(0, q), 0, rng.randint(-2, -1), q + rng.randint(1, 2),
                    True, False, 1.5, None, "1"))
            # only what the builder's row check takes: one entry per old
            # point, a bool pseudo, and every old zero still allowed
            pseudo = space.pseudo or rng.choice((False, False, False, True))
            report = assert_with_point_matches_full_scan(space, row, pseudo)
            assert _new_row_fits(space.dist, q, tuple(row), pseudo) == report.ok
            for v in report.problems or (Violation("ok", ""),):
                kinds[v.kind] = kinds.get(v.kind, 0) + 1
        # every outcome the row check can report was exercised
        assert {"ok", "range", "identity", "triangle"} <= set(kinds)
        assert min(kinds.values()) >= 20

    def test_pseudometric_turned_metric_takes_the_full_check(self):
        space = FiniteMetricSpace(("a", "b", "c"), 4,
                                  ((0, 0, 2), (0, 0, 2), (2, 2, 0)), pseudo=True)
        report = assert_with_point_matches_full_scan(space, (1, 1, 1), False)
        assert [v.witness for v in report.problems] == [(0, 1)]
        assert report.problems[0].kind == "identity"
        # without old zeros the tightened space is a metric
        metric_as_pseudo = FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0)), pseudo=True)
        assert_with_point_matches_full_scan(metric_as_pseudo, (1, 1), False)

    @pytest.mark.parametrize("row", [(1,), (1, 1, 1)])
    def test_row_of_wrong_length_is_a_shape_error(self, two_point_q4, row):
        with pytest.raises(ValidationError) as e:
            two_point_q4.with_point("c", row)
        assert {v.kind for v in e.value.witness.problems} == {"shape"}

    def test_used_name_is_rejected(self, two_point_q4):
        with pytest.raises(ValidationError, match="already used"):
            two_point_q4.with_point("a", (1, 1))


TWO = FiniteMetricSpace(("a", "b"), 2, ((0, 1), (1, 0)))


@pytest.mark.parametrize("build, part", [
    (lambda: FiniteMetricSpace(("a",), 1, 5), "dist"),
    (lambda: FiniteMetricSpace(("a",), 1, (5,)), "dist"),
    (lambda: FiniteMetricSpace(5, 1, ((0,),)), "points"),
    (lambda: WeightedAlphabet(("x",), 1, ((0,),), None), "weights"),
    (lambda: BiKatetovMatrix(TWO, 5), "entries"),
    (lambda: PartialSpec(("a",), 1, 5), "entries"),
    (lambda: KatetovFunction(TWO, 5, (1,)), "support"),
    (lambda: PartialIsometryRelation(TWO, 5), "pairs"),
    (lambda: TWO.with_point("c", 5), "row"),
], ids=["space-dist", "space-row", "space-points", "alphabet-weights", "bikatetov",
        "partial-spec", "katetov-support", "relation-pairs", "with-point"])
def test_parts_that_are_not_sequences_are_validation_errors(build, part):
    with pytest.raises(ValidationError, match=f"^{part} must be a sequence"):
        build()
