"""Backend equivalence: the compiled extension, built from the committed
_ext.c, must match the pure fallback bit for bit on every kernel; and _ext.c
must have been generated from the _ext.pyx beside it."""

import os
import random
import re

from urygrid import _kernels
from urygrid._kernels import _fallback

from conftest import KERNELS_DIR


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
def random_word_inputs(rng, max_len=10):
    nl = rng.randint(1, 4)
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
        n = rng.randint(1, 6)
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


def test_floyd_warshall_pure_equals_the_naive_loop():
    for n, w, cap in hard_floyd_warshall_inputs(600, 31):
        kept = list(w)
        assert _fallback.floyd_warshall_capped(n, w, cap) == naive_floyd_warshall(n, w, cap)
        assert w == kept


def test_floyd_warshall_matches_on_hard_inputs(compiled_ext):
    for n, w, cap in hard_floyd_warshall_inputs(600, 31):
        assert compiled_ext.floyd_warshall_capped(n, w, cap) == \
            _fallback.floyd_warshall_capped(n, w, cap)


def test_graev_norms_match(compiled_ext):
    rng = random.Random(4)
    for _ in range(1500):
        nl, d, wts, letters, signs = random_word_inputs(rng)
        assert compiled_ext.graev_norm_dp(letters, signs, nl, d, wts) == \
            _fallback.graev_norm_dp(letters, signs, nl, d, wts)
        assert compiled_ext.graev_norm_bruteforce(letters, signs, nl, d, wts) == \
            _fallback.graev_norm_bruteforce(letters, signs, nl, d, wts)


def test_graev_sums_that_could_reach_inf_run_pure(compiled_ext, monkeypatch):
    # the compiled enumeration starts its minimum at INF = 2**30, so on its
    # own it answers INF for a word whose cheapest pairing costs 2**36
    big = 1 << 35
    nl, d, wts, letters, signs = 2, [0, 1, 1, 0], [big, big], [0, 1], [1, 1]
    assert compiled_ext.graev_norm_bruteforce(letters, signs, nl, d, wts) == _fallback.INF

    def refuse(*args):
        raise AssertionError("a call below INF went pure")

    for name in ("graev_norm_dp", "graev_norm_bruteforce"):
        routed = _kernels._pure_past_inf(getattr(compiled_ext, name), getattr(_fallback, name))
        assert routed(letters, signs, nl, d, wts) == 2 * big
        below = _kernels._pure_past_inf(getattr(compiled_ext, name), refuse)
        assert below(letters, signs, nl, d, [7, 7]) == 14
    monkeypatch.setattr(_kernels, "_agree_exhaustive", compiled_ext.graev_agree_exhaustive)
    assert _kernels.graev_agree_exhaustive(nl, d, wts, 3) == (85, 0)


def test_exhaustive_driver_matches(compiled_ext):
    rng = random.Random(5)
    for _ in range(5):
        nl, d, wts, _, _ = random_word_inputs(rng, max_len=0)
        got = compiled_ext.graev_agree_exhaustive(nl, d, wts, 4)
        want = _fallback.graev_agree_exhaustive(nl, d, wts, 4)
        assert got == want
        assert got[0] == sum((2 * nl) ** k for k in range(5))
        assert got[1] == 0


def test_prefix_partition_is_exact(compiled_ext):
    rng = random.Random(6)
    nl, d, wts, _, _ = random_word_inputs(rng, max_len=0)
    total = compiled_ext.graev_agree_exhaustive(nl, d, wts, 5)
    parts = 1
    for letter in range(nl):
        for sign in (1, -1):
            parts += compiled_ext.graev_agree_exhaustive(nl, d, wts, 5,
                                                [letter], [sign])[0]
    assert parts == total[0]



def echoed_pyx_lines(c_source):
    """(line number, text) of every _ext.pyx line quoted in the C comments.

    Cython quotes up to three source lines ending at the line it compiles
    (marked with ``# <<<``) and two after, each as " * " plus the rstripped
    line, with comment delimiters defused and non-ASCII characters dropped."""
    lines = c_source.splitlines()
    header = re.compile(r'\s*/\* "urygrid/_kernels/_ext\.pyx":(\d+)$')
    marker = "             # <<<<<<<<<<<<<<"
    for at, line in enumerate(lines):
        m = header.match(line)
        if not m:
            continue
        end = lines.index("*/", at)
        block = [text[3:] for text in lines[at + 1:end]]
        mark = next(k for k, text in enumerate(block) if text.endswith(marker))
        block[mark] = block[mark][:-len(marker)]
        for k, text in enumerate(block):
            yield int(m.group(1)) - mark + k, text


def test_c_source_echoes_the_pyx():
    with open(os.path.join(KERNELS_DIR, "_ext.pyx"), encoding="utf-8") as f:
        pyx = [line.encode("ascii", "ignore").decode().rstrip()
               .replace("*/", "*[inserted by cython to avoid comment closer]/")
               .replace("/*", "/[inserted by cython to avoid comment start]*")
               for line in f.read().splitlines()]
    with open(os.path.join(KERNELS_DIR, "_ext.c"), encoding="utf-8") as f:
        echoed = list(echoed_pyx_lines(f.read()))
    assert len(echoed) > 1000
    stale = [(number, text) for number, text in echoed
             if not 1 <= number <= len(pyx) or pyx[number - 1] != text]
    assert not stale, f"_ext.c is stale against _ext.pyx; regenerate it: {stale[:3]}"
