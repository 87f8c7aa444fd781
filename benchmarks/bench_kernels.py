#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

    python benchmarks/bench_kernels.py

prints the best of several timings per row for the pure fallback and, when
the extension has been built in place (python setup.py build_ext --inplace),
for the compiled kernels beside it with the speed-up. Without the extension
only the pure column is printed.
"""

import random
import sys
import time

sys.path.insert(0, "src")

from urygrid._kernels import _fallback  # noqa: E402

try:
    from urygrid._kernels import _ext
except ImportError:
    _ext = None


def timeit(fn, *args, repeat=5):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


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


def bench_product(mod, n, q, rounds):
    rng = random.Random(1)
    f = [rng.randint(0, q) for _ in range(n * n)]
    g = [rng.randint(0, q) for _ in range(n * n)]

    def run():
        for _ in range(rounds):
            mod.minplus_product(n, f, g, q)

    return timeit(run)


def three_copy_edges(rng, n, q):
    """The shape the amalgam oracle closes: three blocks of n // 3 points,
    the block between the first and the last one missing (INF)."""
    w = random_metric_flat(rng, n, q)
    for i in range(n // 3):
        for j in range(n - n // 3, n):
            w[i * n + j] = w[j * n + i] = _fallback.INF
    return w


def sparse_edges(rng, n, q):
    """Each pair of points missing (INF) with probability 1/2, else at a
    distance drawn from 1..q."""
    w = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            w[i * n + j] = w[j * n + i] = (_fallback.INF if rng.random() < 0.5
                                           else rng.randint(1, q))
    return w


def bench_floyd_warshall(mod, n, q, rounds, edges=random_metric_flat):
    rng = random.Random(2)
    w = edges(rng, n, q)

    def run():
        for _ in range(rounds):
            mod.floyd_warshall_capped(n, w, q)

    return timeit(run)


def bench_graev_pair(mod, length, rounds):
    rng = random.Random(3)
    nl, q = 4, 12
    d = random_metric_flat(rng, nl, q)
    wts = [rng.randint(0, q) for _ in range(nl)]
    for _ in range(nl):
        for i in range(nl):
            for j in range(nl):
                if wts[i] > wts[j] + d[i * nl + j]:
                    wts[i] = wts[j] + d[i * nl + j]
    words = [([rng.randrange(nl) for _ in range(length)],
              [rng.choice((1, -1)) for _ in range(length)])
             for _ in range(rounds)]

    def run():
        for letters, signs in words:
            mod.graev_norm_dp(letters, signs, nl, d, wts)
            mod.graev_norm_bruteforce(letters, signs, nl, d, wts)

    return timeit(run, repeat=3)


def bench_exhaustive(mod, max_len):
    rng = random.Random(4)
    nl, q = 4, 12
    d = random_metric_flat(rng, nl, q)
    wts = [2, 3, 4, 5]
    return timeit(lambda: mod.graev_agree_exhaustive(nl, d, wts, max_len),
                  repeat=1)


def main():
    rows = [
        ("minplus_product n=4 x20k", bench_product, (4, 8, 20_000)),
        ("minplus_product n=12 x5k", bench_product, (12, 8, 5_000)),
        ("floyd_warshall n=12 x5k", bench_floyd_warshall, (12, 20, 5_000)),
        ("floyd_warshall n=18 x2k", bench_floyd_warshall, (18, 20, 2_000)),
        ("floyd_warshall 3-copy n=18 x2k", bench_floyd_warshall, (18, 8, 2_000, three_copy_edges)),
        ("floyd_warshall sparse n=18 x2k", bench_floyd_warshall, (18, 20, 2_000, sparse_edges)),
        ("graev dp+bf len=8 x2k", bench_graev_pair, (8, 2_000)),
        ("graev exhaustive len<=5", bench_exhaustive, (5,)),
        ("graev exhaustive len<=6", bench_exhaustive, (6,)),
    ]
    if _ext is None:
        print("compiled extension not built (python setup.py build_ext --inplace); "
              "pure fallback only")
        print(f"{'benchmark':30s} {'pure':>10s}")
    else:
        print(f"{'benchmark':30s} {'pure':>10s} {'compiled':>10s} {'speedup':>8s}")
    for name, fn, args in rows:
        tp = fn(_fallback, *args)
        if _ext is None:
            print(f"{name:30s} {tp * 1e3:9.1f}ms")
            continue
        tc = fn(_ext, *args)
        print(f"{name:30s} {tp * 1e3:9.1f}ms {tc * 1e3:9.1f}ms {tp / tc:7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
