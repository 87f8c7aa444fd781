"""The shared enumerator and the Katetov interval of ``urygrid.grid``.

Every exhaustive search of the library runs on ``lex_tuples``; here each
one is checked against an ``itertools.product`` filter that writes its
definition out directly, in the same order, on random small spaces."""

import json
import random
from itertools import combinations, product

import pytest

from urygrid import bikatetov, fileio, katetov, relations
from urygrid.bikatetov import enumerate_bikatetov
from urygrid.cli import main
from urygrid.errors import GuardError
from urygrid.gh import realize_in_space
from urygrid.grid import katetov_bounds, lex_tuples
from urygrid.isometry import _isometric_injections, _spheres
from urygrid.katetov import _inside, _profiles
from urygrid.relations import enumerate_carrier
from urygrid.spaces import FiniteMetricSpace, random_grid_space


def small_space(seed):
    """A random space with n <= 4 and q <= 4; every third seed gives a
    pseudometric, a random space with one point doubled."""
    rng = random.Random(seed)
    n, q = rng.randint(1, 4), rng.randint(1, 4)
    if seed % 3:
        return random_grid_space(n, q, rng.randrange(10 ** 9))
    base = random_grid_space(max(n - 1, 1), q, rng.randrange(10 ** 9))
    twin = rng.randrange(base.n)
    return base.with_point("twin", base.dist[twin], pseudo=True)


def is_katetov_on(values, dist):
    return all(abs(values[a] - values[b]) <= dist[a][b] <= values[a] + values[b]
               for a in range(len(values)) for b in range(len(values)))


SEEDS = range(30)


class TestLexTuples:
    def test_zero_length_gives_the_empty_tuple(self):
        assert list(lex_tuples(0, lambda prefix: range(3))) == [()]

    def test_fixed_choices_give_the_product(self):
        assert list(lex_tuples(3, lambda prefix: range(2))) == list(product(range(2), repeat=3))

    def test_order_follows_the_candidate_lists(self):
        assert list(lex_tuples(2, lambda prefix: (2, 0))) == [(2, 2), (2, 0), (0, 2), (0, 0)]

    def test_dead_prefixes_are_dropped(self):
        # strictly increasing triples over 0..3: a prefix ending in 3 has no successor
        got = list(lex_tuples(3, lambda prefix: range(prefix[-1] + 1 if prefix else 0, 4)))
        assert got == list(combinations(range(4), 3))

    def test_tuples_come_out_lazily(self):
        asked = []

        def choices(prefix):
            asked.append(tuple(prefix))
            return range(10)

        assert next(lex_tuples(3, choices)) == (0, 0, 0)
        assert asked == [(), (0,), (0, 0)]


class TestBudget:
    def test_a_walk_within_its_budget_lists_everything(self):
        # 3 candidates for the first entry, then 3 after each of them
        assert list(lex_tuples(2, lambda p: range(3), budget=12)) == \
            list(product(range(3), repeat=2))

    def test_the_candidate_past_the_budget_is_refused(self):
        walk = lex_tuples(2, lambda p: range(3), budget=11, search="toy walk")
        with pytest.raises(GuardError) as e:
            list(walk)
        assert (e.value.used, e.value.limit) == (12, 11)
        assert str(e.value) == "toy walk: used 12 candidates, limit 11"

    def test_a_list_past_the_budget_is_refused_before_its_first_tuple(self):
        walk = lex_tuples(1, lambda p: range(5), budget=4)
        with pytest.raises(GuardError):
            next(walk)


SPACE = FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0)))


@pytest.mark.parametrize("module, constant, call, argv", [
    (bikatetov, "BIKATETOV_BUDGET", lambda: bikatetov.classify_idempotents(SPACE),
     ["theta", "classify"]),
    (relations, "CARRIER_BUDGET", lambda: relations.enumerate_carrier(SPACE),
     ["relations", "k"]),
    (katetov, "PROFILE_LIMIT", lambda: katetov.injectivity_check(SPACE, 1),
     ["approximant", "verify", "--subset", "1"]),
], ids=["bikatetov", "carrier", "profiles"])
def test_each_budgeted_walk_refuses_past_its_budget(monkeypatch, capsys, tmp_path,
                                                   module, constant, call, argv):
    # every walk here takes more than 4 candidates (a 1-point support at q=4
    # alone has 5 profiles); the profile cache may hold a listing made under
    # the real limit, so it starts empty
    monkeypatch.setattr(module, constant, 4)
    katetov._profiles.cache_clear()
    with pytest.raises(GuardError) as e:
        call()
    assert e.value.used > e.value.limit == 4
    assert f"used {e.value.used} candidates, limit 4" in str(e.value)
    p = tmp_path / "space.json"
    p.write_text(json.dumps(fileio.space_to_obj(SPACE)))
    assert main([*argv[:2], str(p), *argv[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {e.value}\n"


def test_saturation_refuses_past_its_guard(monkeypatch, capsys, tmp_path):
    # the swap and its square, the metric, are two elements: one past a guard of 1
    swap = bikatetov.embed_isometry(SPACE, (1, 0))
    monkeypatch.setattr(bikatetov, "SATURATION_GUARD", 1)
    with pytest.raises(GuardError) as e:
        bikatetov.greatest_idempotent([swap])
    assert e.value.used > e.value.limit == 1
    assert f"{e.value.used} elements, limit 1" in str(e.value)
    p = tmp_path / "swap.json"
    p.write_text(json.dumps(fileio.matrix_to_obj(swap)))
    assert main(["theta", "greatest", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {e.value}\n"


def test_katetov_bounds_is_the_exact_interval():
    rng = random.Random(5)
    for _ in range(500):
        lo, hi = rng.randint(0, 3), rng.randint(3, 9)
        pairs = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(0, 3))]
        a, b = katetov_bounds(pairs, lo, hi)
        assert list(range(a, b + 1)) == [v for v in range(lo, hi + 1)
                                         if all(abs(v - w) <= d <= v + w for w, d in pairs)]


@pytest.mark.parametrize("seed", SEEDS)
def test_katetov_profiles_match_the_product_filter(seed):
    space = small_space(seed)
    q, d = space.denominator, space.dist
    for size in range(1, space.n + 1):
        for idx in combinations(range(space.n), size):
            sub = [[d[a][b] for b in idx] for a in idx]
            want = [v for v in product(range(q + 1), repeat=size) if is_katetov_on(v, sub)]
            assert list(_profiles(q, _inside(d, idx))) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_carrier_matches_the_product_filter(seed):
    space = small_space(seed)
    n, d = space.n, space.dist
    want = [f for f in product(range(space.denominator + 1), repeat=n)
            if all(abs(f[a] - f[b]) <= d[a][b] for a in range(n) for b in range(n))]
    assert list(enumerate_carrier(space).members) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_bikatetov_matrices_match_the_product_filter(seed):
    space = small_space(seed)
    q = space.denominator
    # the filter walks (q+1)^(n*n) matrices: three points only at q <= 2
    if (q + 1) ** (space.n ** 2) > 20_000:
        space = space.restrict(space.points[:2])
    n, d = space.n, space.dist
    want = []
    for flat in product(range(q + 1), repeat=n * n):
        rows = tuple(flat[i:i + n] for i in range(0, n * n, n))
        cols = tuple(zip(*rows))
        if all(is_katetov_on(r, d) for r in rows) and all(is_katetov_on(c, d) for c in cols):
            want.append(rows)
    assert [m.entries for m in enumerate_bikatetov(space)] == want


@pytest.mark.parametrize("seed", SEEDS)
def test_isometric_injections_match_the_product_filter(seed):
    space = small_space(seed)
    rng = random.Random(seed)
    d = space.dist
    for _ in range(3):
        dom = rng.sample(range(space.n), rng.randint(1, space.n))
        pattern = [[d[a][b] for b in dom] for a in dom]
        k = len(dom)
        want = [img for img in product(range(space.n), repeat=k)
                if len(set(img)) == k
                and all(d[img[i]][img[j]] == pattern[i][j] for i in range(k) for j in range(k))]
        assert list(_isometric_injections(pattern, _spheres(d, space.denominator))) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_realize_in_space_returns_the_first_product_match(seed):
    space = small_space(seed)
    rng = random.Random(seed)
    q, d = space.denominator, space.dist
    for trial in range(6):
        m = rng.randint(1, space.n)
        if trial % 2:
            # a copy of part of the space, anchored on itself: found at least there
            anchors = rng.sample(range(space.n), m)
            target = space.restrict([space.points[a] for a in anchors])
        else:
            anchors = [rng.randrange(space.n) for _ in range(m)]
            target = random_grid_space(m, q, rng.randrange(10 ** 9))
        gap = max(abs(d[anchors[i]][anchors[j]] - target.dist[i][j])
                  for i in range(m) for j in range(m))
        eps = (gap + 1) // 2 + rng.randint(0, 1)
        want = next((c for c in product(range(space.n), repeat=m)
                     if all(d[anchors[i]][c[i]] <= eps for i in range(m))
                     and all(d[c[i]][c[j]] == target.dist[i][j]
                             for i in range(m) for j in range(m))), None)
        got = realize_in_space(space, [space.points[a] for a in anchors], target, eps)
        assert got == (None if want is None else tuple(space.points[c] for c in want))
        assert want is not None or not trial % 2
