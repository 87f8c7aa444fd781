import hashlib
import random
import re
from itertools import product

import pytest

from conftest import random_matrix_pair, with_doubled_point
from urygrid import _kernels, bikatetov
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

    @pytest.mark.parametrize("points, dist, message", [
        (["a"], [5], "distance matrix is not 1x1"),  # a row that is an int
        (["a", "b"], [[0, 1], {1, 0}], "distance matrix is not 2x2"),  # a row that is a set
        (["a"], None, "distance matrix is not 1x1"),
        (None, None, "points must be a sequence, got None"),
        (5, [[0]], "points must be a sequence, got 5"),
    ], ids=["int row", "set row", "dist None", "all None", "points int"])
    def test_non_sequence_parts_are_shape_problems(self, points, dist, message):
        report = validate_space(points, 2, dist)
        assert [(v.kind, v.message) for v in report.problems] == [("shape", message)]

    def test_nonzero_diagonal(self):
        report = validate_space(["a"], 4, [[1]])
        assert any(v.kind == "diagonal" for v in report.problems)

    def test_constructor_raises_on_invalid(self):
        with pytest.raises(ValidationError):
            FiniteMetricSpace(("a", "b"), 4, ((0, 1), (2, 0)))
        with pytest.raises(ValidationError, match="point names must be hashable"):
            FiniteMetricSpace([["a"]], 1, ((0,),))
        with pytest.raises(ValidationError, match="point names must be hashable"):
            FiniteMetricSpace(["a"], 1, ((0,),)).with_point(["b"], (1,))


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

    def test_unhashable_point_name_is_refused(self):
        # as FiniteMetricSpace refuses it, not as a raw TypeError from set()
        with pytest.raises(ValidationError, match="^point names must be hashable$"):
            PartialSpec([["a"]], 1, ((0,),))
        with pytest.raises(ValidationError, match="^point names must be hashable$"):
            PartialSpec(("a", {}), 1, ((0, None), (None, 0)))

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

    @pytest.mark.parametrize("mode", ["bogus", "Cap", "", None])
    def test_unknown_unreachable_mode_is_refused(self, mode):
        # refused before the closure runs, so neither the unreachable-pair
        # error of the disconnected spec nor the closure of the connected
        # one can answer in its place
        for entries in (((0, None), (None, 0)), ((0, 1), (1, 0))):
            with pytest.raises(ValidationError, match="unreachable must be 'error' or 'cap'"):
                shortest_path_completion(PartialSpec(("a", "b"), 4, entries), mode)

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


def random_mirror_closed_spec(rng):
    """A random mirror-closed partial specification: holes, zeros,
    unspecified diagonal entries and often several components."""
    n, q = rng.randint(1, 8), rng.randint(1, 9)
    entries = [[rng.choice((0, None)) if i == j else None for j in range(n)]
               for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                entries[i][j] = entries[j][i] = rng.choice((0, rng.randint(1, q)))
    return PartialSpec(tuple(f"p{i}" for i in range(n)), q,
                       tuple(tuple(r) for r in entries))


def assert_judged_valid(space):
    """The independent judges of a trusted space: validate_space passes it,
    the validating constructor rebuilds it equal, and its flag and index
    are what that constructor would set."""
    assert type(space.points) is tuple and type(space.dist) is tuple
    assert all(type(row) is tuple for row in space.dist)
    assert validate_space(space.points, space.denominator, space.dist, space.pseudo).ok
    rebuilt = FiniteMetricSpace(space.points, space.denominator, space.dist, space.pseudo)
    assert rebuilt == space and hash(rebuilt) == hash(space)
    zeros = any(space.dist[i][j] == 0 for i in range(space.n) for j in range(i))
    assert space.pseudo is zeros
    assert [space.index(p) for p in space.points] == list(range(space.n))


class TestTrustedSpaces:
    """Every space that FiniteMetricSpace._trusted builds by theorem,
    rebuilt by the validating constructor and checked by validate_space."""

    def test_mirror_closed_closures(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(400):
            spec = random_mirror_closed_spec(rng)
            out = shortest_path_completion(spec, unreachable="cap")
            assert_judged_valid(out)
            n, q = len(spec.points), spec.denominator
            holes = [(i, j) for i in range(n) for j in range(n)
                     if i != j and spec.entries[i][j] is None]
            seen.add(("pseudo", out.pseudo))
            if holes:
                seen.add("holes")
            if any(out.dist[i][j] == q for i, j in holes):
                seen.add("filled at the cap")
            try:
                strict = shortest_path_completion(spec)
            except ValidationError:
                seen.add("disconnected")
            else:
                assert strict == out
        assert seen == {("pseudo", False), ("pseudo", True), "holes", "filled at the cap",
                        "disconnected"}

    def test_amalgam_outputs(self):
        rng = random.Random(44)
        for case in range(200):
            whole = random_grid_space(rng.randint(1, 7), rng.randint(1, 9),
                                      rng.randrange(10 ** 6))
            if case % 3 == 0:
                whole = with_doubled_point(whole, rng)
            names = list(whole.points)
            x_names = rng.sample(names, rng.randint(1, len(names)))
            y_names = rng.sample(names, rng.randint(1, len(names)))
            shared = set(x_names) & set(y_names)
            glue = {p: p + "'" for p in shared if rng.random() < 0.7}
            x = whole.restrict(x_names)
            y_part = whole.restrict(y_names)
            y = FiniteMetricSpace(tuple(p + "'" for p in y_part.points), y_part.denominator,
                                  y_part.dist, y_part.pseudo)
            if case % 4 == 0:
                y = y.rescaled(y.denominator * rng.randint(2, 3))
            assert_judged_valid(amalgam(x, y, glue))

    def test_product_via_amalgam_layouts(self, monkeypatch):
        # the oracle builds no space: each closure it computes of its
        # three-copy layout, named x, x' and x'', is judged as one here
        rng = random.Random(45)
        pairs = [random_matrix_pair(rng, max_n=5, max_q=9) for _ in range(120)]
        closure = _kernels.floyd_warshall_capped
        layouts = []

        def recorded(m, w, cap):
            out = closure(m, w, cap)
            layouts.append((m, cap, out))
            return out

        monkeypatch.setattr(_kernels, "floyd_warshall_capped", recorded)
        for f, g in pairs:
            bikatetov.product_via_amalgam(f, g)
        assert len(layouts) == 120
        spaces = []
        for (f, _), (m, cap, out) in zip(pairs, layouts):
            names = tuple(f"{x}{mark}" for mark in ("", "'", "''") for x in f.space.points)
            rows = tuple(tuple(out[i:i + m]) for i in range(0, m * m, m))
            pseudo = any(rows[i][j] == 0 for i in range(m) for j in range(i))
            spaces.append(FiniteMetricSpace._trusted(names, cap, rows, pseudo))
            assert_judged_valid(spaces[-1])
        assert {space.pseudo for space in spaces} == {False, True}

    def test_random_grid_space(self):
        for n in range(1, 9):
            for q in range(1, 13):
                for seed in (0, 1, 2, 99):
                    assert_judged_valid(random_grid_space(n, q, seed))


# sha256 over random_grid_space on a fixed (n, q, seed) grid, recorded when
# it still built through the validating constructor
RANDOM_GRID_SPACE_SHA256 = "2b661612ae61a4db1d6db176bb40499ae0520891945bb36ce53b8e5a6e1132ab"


class TestRandomGridSpace:
    def test_draws_are_pinned(self):
        spaces = [random_grid_space(n, q, seed) for n in range(1, 9)
                  for q in (1, 2, 3, 5, 8, 12) for seed in (0, 1, 7)]
        record = repr([(s.points, s.denominator, s.dist, s.pseudo) for s in spaces])
        assert hashlib.sha256(record.encode()).hexdigest() == RANDOM_GRID_SPACE_SHA256

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

    @pytest.mark.parametrize("seed", [None, 1.5, True, [1], "x"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValidationError, match=re.escape(
                f"random seed must be an integer, got {seed!r}")):
            random_grid_space(3, 4, seed)

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

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_row_check_matches_full_scan_on_every_small_row(self, q):
        # a metric at q <= 2 skips the triangle scan (_unit_grid) and q = 3
        # runs it: every row over {0, ..., q + 1}, and each entry in turn
        # made True, 1.5 or None, on metric spaces of up to 5 points (4 at
        # q = 3)
        rng = random.Random(q)
        refusals = set()
        for n in range(1, 6 if q <= 2 else 5):
            for _ in range(3):
                space = random_grid_space(n, q, rng.randrange(10 ** 6))
                rows = list(product(range(q + 2), repeat=n))
                rows += [(1,) * i + (bad,) + (1,) * (n - 1 - i)
                         for i in range(n) for bad in (True, 1.5, None)]
                for row in rows:
                    report = assert_with_point_matches_full_scan(space, row, False)
                    assert _new_row_fits(space.dist, q, row, False) == report.ok
                    refusals.add(frozenset(v.kind for v in report.problems))
        # a row refused by its triangles alone occurs at q = 3 only
        assert (frozenset({"triangle"}) in refusals) == (q == 3)
        assert {frozenset({"range"}), frozenset({"identity"})} <= refusals

    def test_row_breaking_a_triangle_at_q3_is_refused(self):
        # in range and zero-free, so only the triangle scan can refuse it
        assert not _new_row_fits(((0, 3), (3, 0)), 3, (1, 1), False)
        assert _new_row_fits(((0, 3), (3, 0)), 3, (1, 2), False)

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
