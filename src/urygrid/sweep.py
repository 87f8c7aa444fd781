"""Partitioned exhaustive word sweeps.

The exhaustive dp-versus-enumeration check partitions cleanly by first
symbol: the kernel sweep takes one, ``first``, and checks only the words
that start with it. So the sweep can fan out over processes, one job per
symbol, the parent checking the empty word. Worker count comes from the
URYGRID_WORKERS environment variable (default 1: no processes spawned) and
is clamped to the number of jobs and of CPUs, so no setting forks without
bound.
"""

from __future__ import annotations

import os

from . import _kernels
from .errors import ValidationError


def worker_count() -> int:
    raw = os.environ.get("URYGRID_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"URYGRID_WORKERS must be an integer, got {raw!r}") from None
    return max(1, n)


def clamp_workers(requested: int, jobs: int) -> int:
    """Processes worth starting: at most one per job and one per CPU."""
    return max(1, min(requested, jobs, os.cpu_count() or 1))


def _job(args):
    return _kernels.graev_agree_exhaustive(*args)


def graev_agree_exhaustive(nl: int, dist, weights, max_len: int,
                           workers: int | None = None) -> tuple[int, int]:
    """(words checked, mismatches) over every signed word of length <=
    max_len; exact partition of the same enumeration when workers > 1."""
    if workers is None:
        workers = worker_count()
    workers = clamp_workers(workers, 2 * nl)
    if workers <= 1 or max_len <= 0:
        return _kernels.graev_agree_exhaustive(nl, dist, weights, max_len)
    checked = 1
    mismatches = 0
    if _kernels.graev_norm_dp([], [], nl, dist, weights) != \
            _kernels.graev_norm_bruteforce([], [], nl, dist, weights):
        mismatches += 1
    from multiprocessing import get_context  # only a parallel sweep pays for it

    jobs = [(nl, dist, weights, max_len, first) for first in range(2 * nl)]
    with get_context("fork").Pool(workers) as pool:
        for c, m in pool.map(_job, jobs):
            checked += c
            mismatches += m
    return checked, mismatches
