"""Backend equivalence: the compiled extension, built from the committed
_ext.c, must match the pure fallback bit for bit on every kernel, refuse
malformed input instead of reading past its buffers, and leak nothing."""

import hashlib
import inspect
import json
import random
from itertools import chain

import pytest

from urygrid import _kernels
from urygrid._kernels import _fallback
from urygrid.graev import PAIRING_ENUMERATION_MAX_LEN
from urygrid.laws import acceptance_alphabet

from conftest import LOAD_EXT, run_child


def random_metric_flat(rng, n, q):
    d = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            d[i * n + j] = d[j * n + i] = rng.randint(1, q)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = d[i * n + k] + d[k * n + j]
                if s < d[i * n + j]:
                    d[i * n + j] = s
    return d


# not urygrid.laws.random_word: flat kernel lists, drawn in a different order
def random_word_inputs(rng, max_len=10, nl=None):
    nl = nl or rng.randint(1, 4)
    q = rng.randint(2, 12)
    d = random_metric_flat(rng, nl, q)
    wts = [rng.randint(0, q) for _ in range(nl)]
    for _ in range(nl):
        for i in range(nl):
            for j in range(nl):
                if wts[i] > wts[j] + d[i * nl + j]:
                    wts[i] = wts[j] + d[i * nl + j]
    n = rng.randint(0, max_len)
    letters = [rng.randrange(nl) for _ in range(n)]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return nl, d, wts, letters, signs


def test_minplus_product_matches(compiled_ext):
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 6)
        cap = rng.randint(1, 15)
        f = [rng.randint(0, cap) for _ in range(n * n)]
        g = [rng.randint(0, cap) for _ in range(n * n)]
        assert compiled_ext.minplus_product(n, f, g, cap) == \
            _fallback.minplus_product(n, f, g, cap)


def test_is_bikatetov_matches(compiled_ext):
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 5)
        q = rng.randint(1, 10)
        d = random_metric_flat(rng, n, q)
        f = [rng.randint(0, q) for _ in range(n * n)]
        assert compiled_ext.is_bikatetov(n, f, d, q) == _fallback.is_bikatetov(n, f, d, q)


def test_floyd_warshall_matches(compiled_ext):
    rng = random.Random(3)
    INF = _fallback.INF
    for _ in range(300):
        n = rng.randint(0, 6)
        cap = rng.randint(1, 12)
        w = [0] * (n * n)
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice([INF, rng.randint(0, cap)])
                w[i * n + j] = w[j * n + i] = v
        assert compiled_ext.floyd_warshall_capped(n, w, cap) == \
            _fallback.floyd_warshall_capped(n, w, cap)


def naive_floyd_warshall(n, w, cap):
    """The index-based triple loop over one flat list that the row-wise pure
    kernel replaced; the reference it must equal."""
    INF = _fallback.INF
    dist = list(w)
    for i in range(n):
        dist[i * n + i] = 0
    for k in range(n):
        for i in range(n):
            dik = dist[i * n + k]
            if dik >= INF:
                continue
            for j in range(n):
                dkj = dist[k * n + j]
                if dkj >= INF:
                    continue
                s = dik + dkj
                if s > cap:
                    s = cap
                if s < dist[i * n + j]:
                    dist[i * n + j] = s
    return dist


def hard_floyd_warshall_inputs(count, seed):
    """Flat edge lists for n up to 18, neither symmetric nor capped: each
    off-diagonal entry is missing (INF) independently of its mirror, at most
    cap, or above cap; the diagonal is left random for the kernel to zero."""
    rng = random.Random(seed)
    INF = _fallback.INF
    for t in range(count):
        n = 18 if t % 10 == 0 else rng.randint(1, 18)
        cap = rng.randint(1, 12)
        p_missing = rng.random()
        w = [INF if rng.random() < p_missing
             else rng.randint(0, cap) if rng.random() < 0.7
             else rng.randint(cap + 1, 3 * cap) for _ in range(n * n)]
        yield n, w, cap


def wide_floyd_warshall_inputs(count, seed):
    """Flat edge lists for n from 0 to 18 at caps from 0 to INF - 1, so
    that the pure kernel packs them into fields of every width: each
    off-diagonal entry is missing (INF, INF + 5 or 2**62, all read as
    missing), at most cap, or above cap."""
    rng = random.Random(seed)
    INF = _fallback.INF
    for _ in range(count):
        n = rng.randint(0, 18)
        cap = rng.choice([0, rng.randint(1, 12), rng.randint(1000, 3000), 1 << 29, INF - 1])
        p_missing = rng.random()
        w = [rng.choice([INF, INF + 5, 1 << 62]) if rng.random() < p_missing
             else rng.randint(0, cap) if rng.random() < 0.7
             else rng.randint(cap + 1, 3 * cap + 1) for _ in range(n * n)]
        yield n, w, cap


def field_width(n, cap):
    """The bits per entry the pure kernel needs: room for twice the
    no-chain mark (n - 1) * cap + 1 below a guard bit."""
    return next(b for b in (16, 32, 64) if (2 * ((n - 1) * cap + 1)).bit_length() < b)


def floyd_warshall_inputs():
    return chain(hard_floyd_warshall_inputs(600, 31), wide_floyd_warshall_inputs(1500, 32))


def test_floyd_warshall_pure_equals_the_naive_loop():
    assert _fallback.floyd_warshall_capped(0, [], 5) == naive_floyd_warshall(0, [], 5) == []
    widths = set()
    for n, w, cap in floyd_warshall_inputs():
        kept = list(w)
        assert _fallback.floyd_warshall_capped(n, w, cap) == naive_floyd_warshall(n, w, cap)
        assert w == kept
        widths.add(field_width(n, cap))
    assert widths == {16, 32, 64}


def test_floyd_warshall_matches_on_hard_inputs(compiled_ext):
    # every entry fits an int64_t and every cap is below INF, so the
    # compiled kernel takes all of these
    for n, w, cap in floyd_warshall_inputs():
        assert compiled_ext.floyd_warshall_capped(n, w, cap) == \
            _fallback.floyd_warshall_capped(n, w, cap)


def test_graev_norms_match(compiled_ext):
    rng = random.Random(4)
    inputs = [random_word_inputs(rng) for _ in range(1500)]
    # and the longest words the library enumerates, the first alternating so
    # that every symbol can close the arc before it
    n = PAIRING_ENUMERATION_MAX_LEN
    for t in range(4):
        nl, d, wts, _, _ = random_word_inputs(rng, max_len=0)
        signs = [(-1) ** i if t == 0 else rng.choice((1, -1)) for i in range(n)]
        inputs.append((nl, d, wts, [rng.randrange(nl) for _ in range(n)], signs))
    for nl, d, wts, letters, signs in inputs:
        assert compiled_ext.graev_norm_dp(letters, signs, nl, d, wts) == \
            _fallback.graev_norm_dp(letters, signs, nl, d, wts)
        assert compiled_ext.graev_norm_bruteforce(letters, signs, nl, d, wts) == \
            _fallback.graev_norm_bruteforce(letters, signs, nl, d, wts)


def test_graev_sums_past_inf_match(compiled_ext):
    # the cheapest pairing costs 2**36, far past INF = 2**30, which the
    # compiled enumeration once started its minimum from
    big = 1 << 35
    nl, d, wts, letters, signs = 2, [0, 1, 1, 0], [big, big], [0, 1], [1, 1]
    for backend in (compiled_ext, _fallback):
        assert backend.graev_norm_dp(letters, signs, nl, d, wts) == 2 * big
        assert backend.graev_norm_bruteforce(letters, signs, nl, d, wts) == 2 * big
        assert backend.graev_agree_exhaustive(nl, d, wts, 3) == (85, 0)


def test_exhaustive_driver_matches(compiled_ext):
    rng = random.Random(5)
    for _ in range(5):
        nl, d, wts, _, _ = random_word_inputs(rng, max_len=0)
        got = compiled_ext.graev_agree_exhaustive(nl, d, wts, 4)
        want = _fallback.graev_agree_exhaustive(nl, d, wts, 4)
        assert got == want
        assert got[0] == sum((2 * nl) ** k for k in range(5))
        assert got[1] == 0


def words_checked(nl, max_len):
    return sum((2 * nl) ** k for k in range(max_len + 1))


def assert_exact_at_the_edges(backends, nl, d, wts):
    # every max_len 0 to 5, the same on each backend and exact
    for max_len in range(6):
        whole = {b.graev_agree_exhaustive(nl, d, wts, max_len) for b in backends}
        assert whole == {(words_checked(nl, max_len), 0)}


def test_exhaustive_driver_matches_at_the_edges(compiled_ext):
    rng = random.Random(8)
    for _ in range(3):
        nl, d, wts, _, _ = random_word_inputs(rng, max_len=0)
        assert_exact_at_the_edges((compiled_ext, _fallback), nl, d, wts)


def test_compiled_sweep_matches_the_pure_one_at_depth(compiled_ext):
    # max_len 6, as 19 of criterion 1's 20 default-scope alphabets: the
    # compiled sweep steps and pops its word at every depth up to 6
    alphabet = acceptance_alphabet(0)
    args = (alphabet.n, alphabet.flat(), alphabet.weights, 6)
    assert compiled_ext.graev_agree_exhaustive(*args) == \
        _fallback.graev_agree_exhaustive(*args) == (words_checked(alphabet.n, 6), 0)


@pytest.mark.parametrize("nl", [1, 2, 4])
def test_pure_sweep_is_exact_at_the_edges(nl):
    rng = random.Random(20 + nl)
    for _ in range(2):
        _, d, wts, _, _ = random_word_inputs(rng, max_len=0, nl=nl)
        assert_exact_at_the_edges((_fallback,), nl, d, wts)


def test_graev_kernels_take_tuples(compiled_ext):
    # WeightedAlphabet hands the kernels its flat distance tuple and its
    # weight tuple as they are
    rng = random.Random(12)
    for _ in range(100):
        nl, d, wts, letters, signs = random_word_inputs(rng, max_len=8)
        for kernels in (compiled_ext, _fallback):
            for name in ("graev_norm_dp", "graev_norm_bruteforce"):
                kernel = getattr(kernels, name)
                assert kernel(letters, signs, nl, tuple(d), tuple(wts)) == \
                    kernel(letters, signs, nl, d, wts)
        assert compiled_ext.graev_agree_exhaustive(nl, tuple(d), tuple(wts), 2) == \
            _fallback.graev_agree_exhaustive(nl, tuple(d), tuple(wts), 2)


D2 = [0, 3, 3, 0]

# malformed calls, which every kernel of both backends refuses
MALFORMED = [
    ("minplus_product", (3, [1], [1], 5)),  # f and g are not n*n
    ("is_bikatetov", (2, [0], D2, 1)),
    ("floyd_warshall_capped", (2, [0], 5)),
    ("floyd_warshall_capped", (1, [0], -1)),  # a negative cap
    ("floyd_warshall_capped", (1, [0], _fallback.INF)),  # a cap of INF
    ("graev_norm_dp", ([0, 5], [1, 1], 2, D2, [1, 1])),  # a letter past nl
    ("graev_norm_bruteforce", ([0, 5], [1, 1], 2, D2, [1, 1])),
    ("graev_norm_dp", ([0, 1], [1, -1], 2, [0], [1, 1])),  # dist is not nl*nl
    ("graev_norm_bruteforce", ([0, 1], [1, -1], 2, D2, [1])),  # weights not nl
    ("graev_agree_exhaustive", (2, [0, 3, 3, 0, 0], [1, 1], 2)),  # dist longer than nl*nl
    ("graev_agree_exhaustive", (2, D2, [1], 2)),  # weights shorter than nl
    ("graev_agree_exhaustive", (-1, [], [], 3)),  # nl < 0
    ("graev_agree_exhaustive", (2, D2, [1, 1], -1)),  # max_len < 0
    ("graev_agree_exhaustive", (2, [0, 3, 3], [1, 1], 2)),  # dist is not nl*nl
    ("graev_agree_exhaustive", (2, D2, [1, 1, 1], 2)),  # weights not nl
    ("graev_agree_exhaustive", (2, [0, -3, -3, 0], [1, 1], 2)),  # a negative entry
    ("graev_agree_exhaustive", (2, D2, [1, -1], 2)),
    ("graev_agree_exhaustive", (0, [], [], -1)),  # max_len < 0 with no letter
    ("graev_agree_exhaustive", (0, [0], [], 1)),  # a distance with no letter
    ("graev_agree_exhaustive", (-1, [], [], -1)),  # nl < 0, checked before max_len
    ("graev_agree_exhaustive", (2, [0, 3, 3], [1, 1], -1)),  # dist, checked before max_len
    ("graev_norm_dp", ([-1], [1], 2, D2, [1, 1])),  # a letter below 0
    ("graev_norm_dp", ([0], [0], 2, D2, [1, 1])),  # a sign of 0
    ("graev_norm_bruteforce", ([0], [2], 2, D2, [1, 1])),
    ("graev_norm_dp", ([0], [1, 1], 2, D2, [1, 1])),  # more signs than letters
    ("graev_norm_bruteforce", ([0], [1], 2, [0, -3, -3, 0], [1, 1])),
    ("graev_norm_dp", ([], [], -1, [], [])),  # nl < 0
    ("minplus_product", (-1, [], [], 5)),  # n < 0
    ("minplus_product", (1, [-1], [0], 5)),  # a negative entry
    ("minplus_product", (1, [1, 1], [0], 5)),  # f longer than n*n
    ("is_bikatetov", (1, [0], [-2], 1)),  # a negative distance
]

# calls whose sums could pass 2**63 - 1: exact in the pure kernels, refused
# by the compiled ones
OVERFLOWING = [
    ("minplus_product", (1, [1 << 62], [1 << 62], 5)),
    ("is_bikatetov", (1, [1 << 62], [0], 1)),
    ("floyd_warshall_capped", (1, [1 << 63], 5)),
    ("graev_norm_dp", ([0, 0], [1, -1], 1, [0], [1 << 62])),
    ("graev_norm_bruteforce", ([0, 0], [1, -1], 1, [0], [1 << 62])),
    ("graev_agree_exhaustive", (1, [0], [1 << 62], 2)),
]


@pytest.mark.parametrize("name, args", MALFORMED)
def test_malformed_input_raises_on_both_backends(compiled_ext, name, args):
    with pytest.raises(ValueError) as pure:
        getattr(_fallback, name)(*args)
    with pytest.raises(ValueError) as compiled:
        getattr(compiled_ext, name)(*args)
    assert str(pure.value) == str(compiled.value)


@pytest.mark.parametrize("args", [args for name, args in MALFORMED
                                  if name == "graev_agree_exhaustive"])
def test_pure_sweep_checks_its_input(args):
    with pytest.raises(ValueError):
        _fallback.graev_agree_exhaustive(*args)


@pytest.mark.parametrize("name, args", OVERFLOWING)
def test_compiled_kernels_refuse_overflowing_sums(compiled_ext, name, args):
    with pytest.raises(OverflowError):
        getattr(compiled_ext, name)(*args)


# one well-formed call of each kernel, every argument given
WELL_FORMED = {
    "minplus_product": (1, [0], [0], 1),
    "is_bikatetov": (1, [0], [0], 1),
    "floyd_warshall_capped": (1, [0], 1),
    "graev_norm_dp": ([0], [1], 1, [0], [1]),
    "graev_norm_bruteforce": ([0], [1], 1, [0], [1]),
    "graev_agree_exhaustive": (1, [0], [1], 1),
}


@pytest.mark.parametrize("name", [n for n in _kernels.__all__ if callable(getattr(_kernels, n))])
def test_kernels_take_positional_arguments_only(compiled_ext, name):
    # one calling convention on both backends: the same positional-only
    # parameters, and a TypeError for any keyword or a wrong argument count
    args = WELL_FORMED[name]
    signatures = []
    for kernel in (getattr(_fallback, name), getattr(compiled_ext, name)):
        params = inspect.signature(kernel).parameters.values()
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_ONLY}
        signatures.append([(p.name, p.default) for p in params])
        names = [p.name for p in params]
        required = sum(p.default is inspect.Parameter.empty for p in params)
        kernel(*args)
        for positional, keywords in (((), dict(zip(names, args))),  # every argument by name
                                     (args, {names[0]: args[0]}),  # a name beside them
                                     (args[:required - 1], {}),  # one too few
                                     (args + (0,), {})):  # one too many
            with pytest.raises(TypeError):
                kernel(*positional, **keywords)
    assert signatures[0] == signatures[1]


def seeded_calls(count, seed):
    """count (kernel name, args) calls, a few of each kernel, with small
    inputs drawn as the parity tests draw theirs."""
    rng = random.Random(seed)
    calls = []
    for _ in range(count // 6):
        n = rng.randint(0, 6)
        cap = rng.randint(1, 12)
        f = [rng.randint(0, cap) for _ in range(n * n)]
        d = random_metric_flat(rng, n, cap)
        nl, dist, wts, letters, signs = random_word_inputs(rng, max_len=8)
        calls += [("minplus_product", (n, f, d, cap)),
                  ("is_bikatetov", (n, f, d, cap)),
                  ("floyd_warshall_capped", (n, d, cap)),
                  ("graev_norm_dp", (letters, signs, nl, dist, wts)),
                  ("graev_norm_bruteforce", (letters, signs, nl, dist, wts)),
                  ("graev_agree_exhaustive", (nl, dist, wts, rng.randint(0, 3)))]
    return calls


# runs the calls given as JSON on stdin once, then 10,000 more in turn, and
# prints how many more memory blocks are allocated after those; the
# malformed calls raise, and their error paths must free what they took
REPEAT_CALLS = """
import gc, json
ext = sys.modules["urygrid._kernels._ext"]
calls = [(getattr(ext, name), json.dumps(args)) for name, args in json.load(sys.stdin)]
def run(count):
    for i in range(count):
        fn, args = calls[i % len(calls)]
        try:
            fn(*json.loads(args))  # fresh lists: a reference kept to one leaks it
        except (ValueError, OverflowError):
            pass
run(len(calls))
gc.collect()
before = sys.getallocatedblocks()
run(10_000)
gc.collect()
print(sys.getallocatedblocks() - before - 1)  # 1: the int object holding before
"""


def test_compiled_kernels_leak_nothing_under_the_debug_allocator(compiled_ext):
    calls = seeded_calls(300, 7) + MALFORMED + OVERFLOWING
    child = run_child(["-X", "dev", "-c", LOAD_EXT + REPEAT_CALLS, compiled_ext.__file__],
                      pure=False, stdin=json.dumps(calls).encode(),
                      env={"PYTHONMALLOC": "debug"})
    assert child.returncode == 0, child.stderr.decode()
    assert int(child.stdout) <= 0


# runs the CLI, given the arguments after the extension's path, as
# python -m urygrid.cli does, and then names the live backend on stderr
RUN_CLI = """
from urygrid import _kernels
from urygrid.cli import main
try:
    sys.exit(main(sys.argv[2:]))
finally:
    print(_kernels.BACKEND, file=sys.stderr)
"""


# sha256 of `urygrid --json selftest` stdout: every law of the registry
# passing, in registry order; a new or renamed law changes it on purpose
SELFTEST_JSON_SHA256 = "d4070c214db3fe52e195cf888f59ec6d7f1342dd1308af19e52ed73ecd683815"


def test_selftest_stdout_is_the_same_on_both_backends(compiled_ext):
    pure = run_child(["-m", "urygrid.cli", "--json", "selftest"], pure=True)
    compiled = run_child(["-c", LOAD_EXT + RUN_CLI, compiled_ext.__file__,
                          "--json", "selftest"], pure=False)
    assert pure.returncode == compiled.returncode == 0, compiled.stderr.decode()
    assert compiled.stderr.split()[-1] == b"compiled"
    assert hashlib.sha256(pure.stdout).hexdigest() == SELFTEST_JSON_SHA256
    assert compiled.stdout == pure.stdout
    assert json.loads(pure.stdout)["ok"] is True
