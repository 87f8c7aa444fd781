import pickle
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urygrid import laws, sweep
from urygrid._kernels import _fallback
from urygrid.errors import GuardError, ValidationError
from urygrid.graev import (WeightedAlphabet, concat, difference_word, enumerate_pairings,
                           format_word, graev_distance, graev_norm,
                           graev_norm_bruteforce, graev_sum, group_product,
                           inverse_word, parse_word, reduce_word)
from urygrid.isometry import iso_group
from urygrid.spaces import random_grid_space

from conftest import random_alphabet, random_weights, random_word

words = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))),
                 max_size=12).map(tuple)


@pytest.fixture
def xy_alphabet():
    # two letters at distance 3/10, weights 4/10 and 6/10
    return WeightedAlphabet(("x", "y"), 10, ((0, 3), (3, 0)), (4, 6))


class TestWords:
    def test_cancelling_pair_reduces_to_empty(self):
        assert reduce_word(((0, 1), (0, -1))) == ()

    def test_inner_cancellation(self):
        # x y^-1 y x -> x x
        w = ((0, 1), (1, -1), (1, 1), (0, 1))
        assert reduce_word(w) == ((0, 1), (0, 1))

    def test_irreducible_unchanged(self):
        w = ((0, 1), (1, 1), (0, -1))
        assert reduce_word(w) == w

    @given(words)
    def test_reduction_is_idempotent_and_irreducible(self, w):
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert all(r[i] != (r[i + 1][0], -r[i + 1][1]) for i in range(len(r) - 1))

    @given(words)
    def test_word_times_inverse_reduces_to_empty(self, w):
        assert group_product(w, inverse_word(w)) == ()

    def test_parse_and_format_round_trip(self, xy_alphabet):
        text = "x y^-1 x x^-1"
        w = parse_word(xy_alphabet, text)
        assert w == ((0, 1), (1, -1), (0, 1), (0, -1))
        assert format_word(xy_alphabet, w) == text

    # each printed as a well-formed word, or failed inside the letter
    # lookup, before format_word checked its input
    @pytest.mark.parametrize("word", [((0, 2),), ((0, 0),), ((-1, 1),), ((True, 1),),
                                      ((5, 1),)])
    def test_format_refuses_a_malformed_word(self, xy_alphabet, word):
        with pytest.raises(ValidationError):
            format_word(xy_alphabet, word)


class TestAlphabet:
    def test_weights_must_be_nonexpanding(self):
        with pytest.raises(ValidationError):
            WeightedAlphabet(("x", "y"), 10, ((0, 3), (3, 0)), (0, 6))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            WeightedAlphabet(("x",), 10, ((0,),), (-1,))

    def test_distances_may_exceed_the_denominator(self):
        # relation alphabets live in diameter 2
        WeightedAlphabet(("x", "y"), 4, ((0, 8), (8, 0)), (4, 4))

    @pytest.mark.parametrize("q", [-3, 0, True])
    def test_bad_denominators_are_rejected(self, q):
        with pytest.raises(ValidationError, match="denominator"):
            WeightedAlphabet(("x", "y"), q, ((0, 1), (1, 0)), (1, 1))

    def test_weight_of_twice_the_denominator_is_accepted(self):
        # a distance of 2q is accepted above
        WeightedAlphabet(("x", "y"), 4, ((0, 8), (8, 0)), (0, 8))

    @pytest.mark.parametrize("dist, weights, message", [
        (((0, 9), (9, 0)), (4, 4), r"entry \(x,y\) = 9 is not an integer in \[0, 8\]"),
        (((0, 8), (8, 0)), (8, 9), r"weight 9 is not an integer in \[0, 8\]")])
    def test_values_past_twice_the_denominator_are_rejected(self, dist, weights, message):
        with pytest.raises(ValidationError, match=message):
            WeightedAlphabet(("x", "y"), 4, dist, weights)

    @pytest.mark.parametrize("dist, weights", [
        (((0, 1), (1, 0)), (True, 1)),
        (((0, True), (True, 0)), (1, 1)),
        (((False, 1), (1, False)), (1, 1)),
    ])
    def test_bool_entries_are_rejected(self, dist, weights):
        with pytest.raises(ValidationError):
            WeightedAlphabet(("x", "y"), 10, dist, weights)


    def test_flat_distances_are_held_outside_the_fields(self, xy_alphabet):
        # built once, row-major; equality, hashing and repr see the fields only
        assert xy_alphabet.flat() == (0, 3, 3, 0)
        assert xy_alphabet.flat() is xy_alphabet.flat()
        assert "_flat" not in repr(xy_alphabet)
        trusted = WeightedAlphabet._trusted(xy_alphabet.letters, 10, xy_alphabet.dist,
                                            xy_alphabet.weights)
        assert trusted == xy_alphabet and hash(trusted) == hash(xy_alphabet)
        assert trusted.flat() == xy_alphabet.flat()
        assert pickle.loads(pickle.dumps(xy_alphabet)).flat() == (0, 3, 3, 0)
        moved = WeightedAlphabet(xy_alphabet.letters, xy_alphabet.denominator,
                                 ((0, 5), (5, 0)), xy_alphabet.weights)
        assert moved.flat() == (0, 5, 5, 0)


class TestPairings:
    def test_single_letter_has_only_the_empty_pairing(self, xy_alphabet):
        assert enumerate_pairings(((0, 1),)) == [frozenset()]

    def test_opposite_signs_can_pair(self):
        got = set(enumerate_pairings(((0, 1), (1, -1))))
        assert got == {frozenset(), frozenset({(0, 1)})}

    def test_equal_signs_cannot_pair(self):
        assert enumerate_pairings(((0, 1), (0, 1))) == [frozenset()]

    def test_guard_refusal(self, xy_alphabet):
        # both enumerations take 14 symbols and refuse 15 in the same words
        at_bound, past = (tuple((0, (-1) ** i) for i in range(n)) for n in (14, 15))
        assert len(enumerate_pairings(at_bound)) > 1
        assert graev_norm_bruteforce(at_bound, xy_alphabet) == graev_norm(at_bound, xy_alphabet)
        for refuse in (enumerate_pairings, lambda w: graev_norm_bruteforce(w, xy_alphabet)):
            with pytest.raises(GuardError) as e:
                refuse(past)
            assert (e.value.used, e.value.limit) == (15, 14)
            assert str(e.value) == ("word of length 15 exceeds the enumeration bound 14; "
                                    "use the dynamic program")

    @given(words)
    @settings(max_examples=60, deadline=None)
    def test_all_enumerated_pairings_are_valid_and_distinct(self, w):
        alphabet = WeightedAlphabet(("a", "b", "c", "d"), 6,
                                    ((0, 1, 2, 3), (1, 0, 1, 2),
                                     (2, 1, 0, 1), (3, 2, 1, 0)),
                                    (1, 1, 1, 2))
        ps = enumerate_pairings(w)
        assert len(set(ps)) == len(ps)
        for p in ps:
            graev_sum(w, p, alphabet)  # raises on any invalid pairing


class TestGraevSum:
    def test_empty_word(self, xy_alphabet):
        assert graev_sum((), frozenset(), xy_alphabet) == 0

    def test_unpaired_letter_contributes_weight(self, xy_alphabet):
        assert graev_sum(((0, 1),), frozenset(), xy_alphabet) == 4

    def test_paired_letters_contribute_distance(self, xy_alphabet):
        w = ((0, 1), (1, -1))
        assert graev_sum(w, frozenset({(0, 1)}), xy_alphabet) == 3

    def test_crossing_arcs_rejected(self, xy_alphabet):
        w = ((0, 1), (1, 1), (0, -1), (1, -1))
        with pytest.raises(ValidationError):
            graev_sum(w, frozenset({(0, 2), (1, 3)}), xy_alphabet)

    def test_equal_sign_arc_rejected(self, xy_alphabet):
        with pytest.raises(ValidationError):
            graev_sum(((0, 1), (0, 1)), frozenset({(0, 1)}), xy_alphabet)


class TestNorms:
    @pytest.mark.parametrize("word", [
        ((2, 1),), ((-1, 1),), ((True, 1),), ((1.0, 1),), ((0, 2),), ((0, True),),
        ((0, 1.0),), ((0,),), ((0, 1, 1),), (5,), ((0, "x"),)])
    def test_malformed_words_are_validation_errors(self, xy_alphabet, word):
        for norm in (graev_norm, graev_norm_bruteforce):
            with pytest.raises(ValidationError):
                norm(word, xy_alphabet)
        with pytest.raises(ValidationError):
            graev_sum(word, frozenset(), xy_alphabet)
        # graev_distance and difference_word check both words before
        # reducing them: a bad symbol must not fail inside reduce_word or
        # cancel against its twin
        for u, v in ((word, ()), ((), word), (word, word)):
            for route in (graev_distance, difference_word):
                with pytest.raises(ValidationError):
                    route(u, v, xy_alphabet)

    def test_worked_minimum(self, xy_alphabet):
        w = parse_word(xy_alphabet, "x y^-1")
        assert graev_norm_bruteforce(w, xy_alphabet) == 3
        assert graev_norm(w, xy_alphabet) == 3

    def test_single_letter_costs_its_weight(self, xy_alphabet):
        assert graev_norm_bruteforce(((0, 1),), xy_alphabet) == 4

    def test_empty_word_costs_nothing(self, xy_alphabet):
        assert graev_norm_bruteforce((), xy_alphabet) == 0

    def test_cancelling_pair_costs_nothing(self, xy_alphabet):
        assert graev_norm(parse_word(xy_alphabet, "x x^-1"), xy_alphabet) == 0

    def test_nested_cancellation_costs_nothing(self, xy_alphabet):
        assert graev_norm(parse_word(xy_alphabet, "x y^-1 y x^-1"), xy_alphabet) == 0

    def test_dp_equals_enumeration_exhaustively_short(self):
        rng = random.Random(7)
        for _ in range(2):
            alphabet = random_alphabet(rng, n=3, q=9)
            stack = [()]
            while stack:
                w = stack.pop()
                assert graev_norm(w, alphabet) == graev_norm_bruteforce(w, alphabet)
                if len(w) < 4:
                    for letter in range(3):
                        for sign in (1, -1):
                            stack.append(w + ((letter, sign),))


def sweep_inputs(rng):
    alphabet = random_alphabet(rng, n=rng.randint(1, 4), q=rng.randint(2, 12))
    return alphabet.n, alphabet.flat(), list(alphabet.weights)


def words_checked(nl, max_len):
    return sum((2 * nl) ** k for k in range(max_len + 1))


def alphabet_tables(nl, d, wts):
    """The tables the pure sweep builds once and hands both family helpers:
    each letter's distance row, and a family's layout (the child, then leaf
    (l, +1) at 2l + 1 and (l, -1) at 2l + 2), the child at 0 and each leaf
    at its weight."""
    return [d[l * nl:(l + 1) * nl] for l in range(nl)], [0] + [w for w in wts for _ in (1, -1)]


class TestSweep:
    def test_pure_sweep_checks_every_word(self):
        rng = random.Random(5)
        for _ in range(5):
            nl, d, wts = sweep_inputs(rng)
            assert _fallback.graev_agree_exhaustive(nl, d, wts, 4) == \
                (words_checked(nl, 4), 0)

    def test_pure_sweep_counts_mismatches(self, monkeypatch):
        # every inverse symbol costs one more on the pairing side: in the
        # step (inner words, of length 1 at max_len 3) and in the family
        # minima (parents of leaves, of length 2, one more when they end in
        # -1, and leaves, one more for each of their last two symbols that
        # is -1). Every candidate of a word with a -1 sign carries at least
        # one extra, so exactly those words mismatch
        step = _fallback.graev_pairing_step
        family = _fallback._family_minima

        def off_by_one(states, letter, sign, *rest):
            return [(stack, depth, cost + (sign == -1))
                    for stack, depth, cost in step(states, letter, sign, *rest)]

        def family_off_by_one(states, complete, symbols, rows, *rest):
            got = iter(family(states, complete, symbols, rows, *rest))
            nl = len(rows)
            out = []
            for _, sign in symbols:
                k = sign == -1
                # the child, then its leaves, letters ascending, +1 first
                out.append(next(got) + k)
                out += [next(got) + k + j % 2 for j in range(2 * nl)]
            return out

        monkeypatch.setattr(_fallback, "graev_pairing_step", off_by_one)
        monkeypatch.setattr(_fallback, "_family_minima", family_off_by_one)
        got = _fallback.graev_agree_exhaustive(2, [0, 3, 3, 0], [2, 4], 3)
        assert got == (words_checked(2, 3), words_checked(2, 3) - words_checked(1, 3))

    def test_pure_sweep_counts_dp_mismatches(self, monkeypatch):
        # P[0][n+1] one more after an inverse symbol. Inner words (length 1,
        # from graev_dp_step) and parents of leaves (length 2, from
        # _family_norms) take their norms from row 0, and no split term
        # reads it, so those words mismatch exactly when they end in -1: 2
        # of length 1 and 8 of length 2. The 64 leaves abc read row 0
        # through the parent's norm and the prefix norms, as the least of
        # three terms:
        #   c unpaired:     norm(ab) + wt(c), one more when b is -1;
        #   c arcs to b:    norm(a) + d(b, c), one more when a is -1;
        #   c arcs to a:    d(a, c) + wt(b), never more.
        # A leaf mismatches when every least term is one more. With
        # d(x, y) = 3 and weights 2 and 4 that is 16 leaves: 14 with b = -1,
        # and x^-1 y y^-1 and y^-1 x x^-1, where only c arcs to b is least.
        column = _fallback._dp_column

        def off_by_one(plan, letter, sign, weight):
            col = column(plan, letter, sign, weight)
            col[0] += sign == -1
            return col

        monkeypatch.setattr(_fallback, "_dp_column", off_by_one)
        got = _fallback.graev_agree_exhaustive(2, [0, 3, 3, 0], [2, 4], 3)
        assert got == (words_checked(2, 3), 2 + 8 + 16)

    def test_pure_sweep_counts_leaf_split_mismatches(self, monkeypatch):
        # every leaf norm in the family norms one more when the leaf ends in
        # -1; only leaves are changed, so exactly the 32 leaves of length 3
        # that end in -1 mismatch
        family = _fallback._family_norms

        def off_by_one(plan, norms, symbols, rows, *rest):
            # each child, then its leaves, letters ascending, +1 first: the
            # leaves that end in -1 sit at the even offsets from 2
            size = 1 + 2 * len(rows)
            return [m + (j % size > 0 and j % size % 2 == 0)
                    for j, m in enumerate(family(plan, norms, symbols, rows, *rest))]

        monkeypatch.setattr(_fallback, "_family_norms", off_by_one)
        got = _fallback.graev_agree_exhaustive(2, [0, 3, 3, 0], [2, 4], 3)
        assert got == (words_checked(2, 3), 32)

    def test_pure_sweep_counts_split_term_mismatches(self, monkeypatch):
        # every split term of a parent of leaves one more when the parent
        # ends in -1: the family norms read the prefix norms only in split
        # terms, so the wrapper finishes each child in a call of its own, a
        # -1 child on prefix norms one more. Only leaves read the terms. A
        # leaf abc with b = -1 then mismatches when some term is below
        # leaving c unpaired, norm(ab) + wt(c). With d(x, y) = 3 and weights
        # 2 and 4:
        #   a and b both -1: c = x or y arcs to b at wt(a) + d(b, c), below
        #     wt(a) + wt(b) + wt(c): 8 leaves;
        #   x y^-1 (norm 3): c = y arcs to b (2 < 7), c = x^-1 to a (4 < 5);
        #   y x^-1 (norm 3): c = x arcs to b (4 < 5), c = y^-1 to a (2 < 7);
        #   x x^-1 and y y^-1 (norm 0): no term is below;
        # 12 in all
        family = _fallback._family_norms

        def off_by_one(plan, norms, symbols, *rest):
            higher = [norm + 1 for norm in norms]
            return [m for symbol in symbols
                    for m in family(plan, higher if symbol[1] == -1 else norms, [symbol], *rest)]

        monkeypatch.setattr(_fallback, "_family_norms", off_by_one)
        got = _fallback.graev_agree_exhaustive(2, [0, 3, 3, 0], [2, 4], 3)
        assert got == (words_checked(2, 3), 12)

    def test_both_family_helpers_get_the_input_tables(self, monkeypatch):
        # each family call on either side gets the input alphabet's letter
        # rows and leaf weights: both sides read a leaf's weight from the
        # same table, so a wrong weight there would never mismatch
        nl, d, wts = 3, [0, 2, 5, 2, 0, 4, 5, 4, 0], [1, 3, 2]
        seen = []
        for name in ("_family_norms", "_family_minima"):
            def spy(*args, real=getattr(_fallback, name)):
                seen.append(args[3:])
                return real(*args)
            monkeypatch.setattr(_fallback, name, spy)
        for max_len in (1, 3):
            got = _fallback.graev_agree_exhaustive(nl, d, wts, max_len)
            assert got == (words_checked(nl, max_len), 0)
        assert len(seen) == 2 + 2 * 2 * nl
        want = ([[0, 2, 5], [2, 0, 4], [5, 4, 0]], [0, 1, 1, 3, 3, 2, 2], wts)
        assert all(args == want for args in seen)

    @pytest.mark.parametrize("alphabet_seed", [None, 1, 2])
    def test_child_terms_equal_the_column(self, xy_alphabet, alphabet_seed):
        # every grandparent of leaves for each max_len up to 6 (the words of
        # length <= 4, whose plans do not depend on max_len): each child's
        # norm, and each leaf's split, against the full column; then
        # max_len 1, which keeps each family's first entry
        if alphabet_seed is None:
            nl, d, wts = 2, xy_alphabet.flat(), list(xy_alphabet.weights)
        else:
            alphabet = random_alphabet(random.Random(alphabet_seed), n=4, q=12)
            nl, d, wts = 4, alphabet.flat(), list(alphabet.weights)
        symbols = [(letter, sign) for letter in range(nl) for sign in (1, -1)]
        tables = alphabet_tables(nl, d, wts)

        def columns(plan):
            return [_fallback._dp_column(plan, letter, sign, wts[letter])[0]
                    for letter, sign in symbols]

        stack = [([], [0])]
        while stack:
            plan, norms = stack.pop()
            want = []
            for letter, sign in symbols:
                col, longer = _fallback.graev_dp_step(plan, letter, sign, nl, d, wts)
                want += [col[0], *columns(longer)]
                if len(plan) < 4:
                    stack.append((longer, norms + [col[0]]))
            assert _fallback._family_norms(plan, norms, symbols, *tables, wts) == want
        family = _fallback._family_norms([], [0], symbols, *tables, wts)
        assert family[::1 + 2 * nl] == columns([])

    @pytest.mark.parametrize("alphabet_seed", [None, 1, 2])
    def test_child_closers_equal_the_step(self, xy_alphabet, alphabet_seed):
        # every state list the sweep holds at a grandparent of leaves, for
        # each max_len up to 6: each child's least pairing, and each leaf's,
        # against the steps' complete states; then max_len 1, which keeps
        # each family's first entry
        if alphabet_seed is None:
            nl, d, wts = 2, xy_alphabet.flat(), list(xy_alphabet.weights)
        else:
            alphabet = random_alphabet(random.Random(alphabet_seed), n=4, q=12)
            nl, d, wts = 4, alphabet.flat(), list(alphabet.weights)
        step = _fallback.graev_pairing_step
        least = _fallback._complete_min
        symbols = [(letter, sign) for letter in range(nl) for sign in (1, -1)]
        tables = alphabet_tables(nl, d, wts)

        def leaf_minima(states):
            return [least(step(states, letter, sign, 0, nl, d, wts)) for letter, sign in symbols]

        for max_len in range(2, 7):
            stack = [((), [(None, 0, 0)])]
            while stack:
                w, states = stack.pop()
                if len(w) + 2 == max_len:
                    want = []
                    for letter, sign in symbols:
                        child = step(states, letter, sign, 1, nl, d, wts)
                        want += [least(child), *leaf_minima(child)]
                    assert _fallback._family_minima(states, least(states), symbols,
                                                    *tables, wts) == want
                    continue
                room = max_len - len(w) - 1
                for letter, sign in symbols:
                    stack.append((w + ((letter, sign),),
                                  step(states, letter, sign, room, nl, d, wts)))
        family = _fallback._family_minima([(None, 0, 0)], 0, symbols, *tables, wts)
        assert family[::1 + 2 * nl] == leaf_minima([(None, 0, 0)])

    @pytest.mark.parametrize("nl, max_len, repeats", [
        (1, 6, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0), (2, 3, 0), (2, 5, 0), (4, 4, 0),
        (2, 1, 1), (2, 2, 1), (2, 5, 1)])
    def test_pure_sweep_steps_only_inner_words(self, monkeypatch, nl, max_len, repeats):
        # one graev_dp_step and one graev_pairing_step per word of length 1
        # to max_len - 2; parents of leaves and leaves are finished from
        # their grandparent with no plan or state list of their own. The
        # job is queued 1 + repeats times in one in-process graev_agree_each,
        # which sweeps each copy whole
        calls = {"graev_dp_step": 0, "graev_pairing_step": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(_fallback, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(_fallback, name, counted)
        monkeypatch.setattr(sweep, "_kernels", _fallback)
        alphabet = random_alphabet(random.Random(nl), n=nl, q=9)
        job = (nl, alphabet.flat(), alphabet.weights, max_len)
        got = sweep.graev_agree_each([job] * (1 + repeats))
        assert got == [(words_checked(nl, max_len), 0)] * (1 + repeats)
        inner = (1 + repeats) * sum((2 * nl) ** k for k in range(1, max_len - 1))
        assert calls == {"graev_dp_step": inner, "graev_pairing_step": inner}

    def test_parallel_sweep_matches_serial(self, monkeypatch):
        # two CPUs, so that two workers start a pool whatever the machine;
        # each job list mixes alphabet sizes and lengths 0 to 4
        import multiprocessing

        started = []

        def spy(method, real=multiprocessing.get_context):
            started.append(method)
            return real(method)

        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", spy)
        rng = random.Random(7)
        for _ in range(3):
            jobs = []
            for _ in range(rng.randint(2, 5)):
                nl, d, wts = sweep_inputs(rng)
                jobs.append((nl, d, wts, rng.randint(0, 4)))
            serial = sweep.graev_agree_each(jobs)
            assert serial == [(words_checked(nl, max_len), 0) for nl, _, _, max_len in jobs]
            assert sweep.graev_agree_each(jobs, 2) == serial
        assert started == ["fork"] * 3

    @pytest.mark.parametrize("cpus", [2, 64])
    def test_only_the_full_criterion_one_starts_a_pool(self, monkeypatch, cpus):
        # the kernel sweep answers each job with its exact count, so every
        # scope runs at once; the quick, pure-fallback and default scopes
        # start no pool, the full one asks for one process per CPU, at most
        # one per alphabet
        import multiprocessing

        asked = []

        def exact(nl, dist, weights, max_len):
            return words_checked(nl, max_len), 0

        class Pool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=None):
                return [fn(job) for job in jobs]

        def context(method):
            assert method == "fork"
            return types.SimpleNamespace(Pool=Pool)

        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(sweep._kernels, "graev_agree_exhaustive", exact)
        monkeypatch.setattr(multiprocessing, "get_context", context)
        for scope, (count, boundary_len, rest_len) in laws.GRAEV_SWEEP_SCOPES.items():
            total = words_checked(4, boundary_len) + (count - 1) * words_checked(4, rest_len)
            assert f"on {total:,} words over {count} alphabets" in \
                laws.graev_dp_vs_enumeration(scope)
            assert asked == ([min(20, cpus)] if scope == "full" else []), scope
            asked.clear()

    def test_negative_max_len_is_the_kernels_error(self, monkeypatch):
        # the kernels' own error whatever workers asks for: one job always
        # runs in-process, so no pool starts
        import multiprocessing

        def no_pool(*args):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        for workers in (1, 2):
            with pytest.raises(ValueError, match=r"^max_len must be non-negative, got -1$"):
                sweep.graev_agree_exhaustive(2, [0, 3, 3, 0], [1, 1], -1, workers=workers)
        assert sweep.graev_agree_exhaustive(2, [0, 3, 3, 0], [1, 1], 0, workers=2) == (1, 0)

    def test_worker_count_is_clamped(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
        assert sweep.clamp_workers(10 ** 6, 8) == 4
        assert sweep.clamp_workers(10 ** 6, 2) == 2
        assert sweep.clamp_workers(3, 8) == 3
        assert sweep.clamp_workers(0, 8) == 1
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert sweep.clamp_workers(10 ** 6, 8) == 1

    def test_complete_states_are_the_pairings(self, xy_alphabet):
        # one complete state per pairing, carrying that pairing's Graev sum
        nl, d, wts = 2, xy_alphabet.flat(), list(xy_alphabet.weights)
        stack = [()]
        while stack:
            w = stack.pop()
            states = [(None, 0, 0)]
            for pos, (letter, sign) in enumerate(w):
                states = _fallback.graev_pairing_step(
                    states, letter, sign, len(w) - pos - 1, nl, d, wts)
            got = sorted(cost for top, _, cost in states if top is None)
            want = sorted(graev_sum(w, p, xy_alphabet) for p in enumerate_pairings(w))
            assert got == want
            if len(w) < 6:
                for letter in range(2):
                    for sign in (1, -1):
                        stack.append(w + ((letter, sign),))


class TestSeminormLaws:
    def test_reduction_invariance(self):
        rng = random.Random(11)
        alphabet = random_alphabet(rng)
        for _ in range(400):
            w = random_word(rng, 4, 9)
            assert graev_norm(w, alphabet) == graev_norm(reduce_word(w), alphabet)

    def test_inverse_invariance(self):
        rng = random.Random(13)
        alphabet = random_alphabet(rng)
        for _ in range(400):
            w = random_word(rng, 4, 9)
            assert graev_norm(w, alphabet) == graev_norm(inverse_word(w), alphabet)

    def test_subadditive(self):
        rng = random.Random(17)
        alphabet = random_alphabet(rng)
        for _ in range(400):
            u = random_word(rng, 4, 7)
            v = random_word(rng, 4, 7)
            assert graev_norm(group_product(u, v), alphabet) \
                <= graev_norm(u, alphabet) + graev_norm(v, alphabet)

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        alphabet = random_alphabet(rng)
        for _ in range(300):
            u = random_word(rng, 4, 5)
            v = random_word(rng, 4, 6)
            conj = reduce_word(concat(concat(u, v), inverse_word(u)))
            assert graev_norm(conj, alphabet) == graev_norm(reduce_word(v), alphabet)


class TestDistance:
    def test_zero_on_equal_words(self, xy_alphabet):
        w = parse_word(xy_alphabet, "x y^-1 x")
        assert graev_distance(w, w, xy_alphabet) == 0

    def test_bounded_by_letter_distance(self):
        rng = random.Random(23)
        for _ in range(50):
            alphabet = random_alphabet(rng, n=4, q=10)
            x, y = rng.sample(range(4), 2)
            assert graev_distance(((x, 1),), ((y, 1),), alphabet) \
                <= alphabet.dist[x][y]

    def test_two_sided_invariance(self):
        rng = random.Random(29)
        alphabet = random_alphabet(rng)
        for _ in range(200):
            u = random_word(rng, 4, 6)
            v = random_word(rng, 4, 6)
            w = random_word(rng, 4, 6)
            base = graev_distance(u, v, alphabet)
            assert graev_distance(group_product(w, u), group_product(w, v),
                                  alphabet) == base
            assert graev_distance(group_product(u, w), group_product(v, w),
                                  alphabet) == base


class TestDisplacementBound:
    def test_permuted_word_moves_no_more_than_its_letters(self):
        # for any alphabet isometry preserving the weights, the distance
        # between a word and its letterwise image is bounded by the total
        # letter displacement
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            space = random_grid_space(rng.randint(2, 5), 6, rng.randrange(10 ** 6))
            weights = random_weights(space, rng)
            alphabet = WeightedAlphabet.from_space(space, weights)
            perms = [g for g in iso_group(space)
                     if all(weights[g[i]] == weights[i] for i in range(space.n))]
            g = rng.choice(perms)
            w = random_word(rng, space.n, 8)
            image = tuple((g[letter], sign) for letter, sign in w)
            bound = sum(space.dist[g[letter]][letter] for letter, _ in w)
            assert graev_distance(w, image, alphabet) <= bound
            checked += 1
