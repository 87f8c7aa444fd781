"""Exhaustive word sweeps over a process pool.

A job is one whole alphabet's sweep, (nl, dist, weights, max_len). Jobs
share nothing, so graev_agree_each maps them over a pool of at most one
process per job and one per CPU, and runs them in-process when that is
one. The pool forks, so each worker runs the parent's live kernel backend.
The caller names the worker count; nothing else starts a process.
"""

from __future__ import annotations

import os

from . import _kernels


def clamp_workers(requested: int, jobs: int) -> int:
    """Processes worth starting: at most one per job and one per CPU."""
    return max(1, min(requested, jobs, os.cpu_count() or 1))


def _job(args):
    return _kernels.graev_agree_exhaustive(*args)


def graev_agree_each(jobs, workers: int = 1) -> list[tuple[int, int]]:
    """(words checked, mismatches) of each job (nl, dist, weights, max_len)
    in order: the kernel sweep of every signed word of length <= max_len."""
    jobs = list(jobs)
    workers = clamp_workers(workers, len(jobs))
    if workers == 1:
        return [_job(job) for job in jobs]
    from multiprocessing import get_context  # only a parallel sweep pays for it

    with get_context("fork").Pool(workers) as pool:
        # jobs differ in length, so each worker takes the next one when free
        return pool.map(_job, jobs, chunksize=1)


def graev_agree_exhaustive(nl: int, dist, weights, max_len: int,
                           workers: int = 1) -> tuple[int, int]:
    """graev_agree_each on the one job (nl, dist, weights, max_len), which
    runs in-process whatever workers is."""
    (result,) = graev_agree_each([(nl, dist, weights, max_len)], workers)
    return result
