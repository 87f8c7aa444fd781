"""Kernel selection: compiled extension when present, pure Python otherwise.

Set URYGRID_PURE=1 to force the fallback even when the extension is built.
``BACKEND`` reports which implementation is live.
"""

import os

from ..errors import ValidationError
from . import _fallback

if os.environ.get("URYGRID_PURE") == "1":
    from ._fallback import (BACKEND, INF, floyd_warshall_capped,
                            graev_agree_exhaustive as _agree_exhaustive,
                            graev_norm_bruteforce, graev_norm_dp,
                            is_bikatetov, iter_pairings, minplus_product)
else:
    try:
        from ._ext import (BACKEND, INF, floyd_warshall_capped,
                           graev_agree_exhaustive as _agree_exhaustive,
                           graev_norm_bruteforce, graev_norm_dp, is_bikatetov, minplus_product)
        from ._fallback import iter_pairings
    except ImportError:
        from ._fallback import (BACKEND, INF, floyd_warshall_capped,
                                graev_agree_exhaustive as _agree_exhaustive,
                                graev_norm_bruteforce, graev_norm_dp,
                                is_bikatetov, iter_pairings, minplus_product)


def _sums_below_inf(length, dist, weights) -> bool:
    """Whether every pairing sum of a word of this length stays below INF:
    a sum charges at most one distance or weight per symbol."""
    return length * max(max(dist, default=0), max(weights, default=0)) < INF


def _pure_past_inf(compiled, pure):
    """A Graev kernel that runs ``compiled`` and hands a call to ``pure``
    when some pairing sum could reach INF, the value the compiled pairing
    enumeration starts its minimum from."""
    def kernel(letters, signs, nl, dist, weights):
        if _sums_below_inf(len(letters), dist, weights):
            return compiled(letters, signs, nl, dist, weights)
        return pure(letters, signs, nl, dist, weights)

    return kernel


if BACKEND == "compiled":
    graev_norm_dp = _pure_past_inf(graev_norm_dp, _fallback.graev_norm_dp)
    graev_norm_bruteforce = _pure_past_inf(graev_norm_bruteforce,
                                           _fallback.graev_norm_bruteforce)


def graev_agree_exhaustive(nl, dist, weights, max_len, prefix_letters=(), prefix_signs=()):
    """The live backend's exhaustive sweep, after checking the prefix: both
    backends assume parallel prefix lists no longer than max_len (the
    compiled one sizes its buffers for max_len symbols). Sweeps whose sums
    could reach INF run pure, as _pure_past_inf does for single words."""
    if len(prefix_letters) != len(prefix_signs):
        raise ValidationError(f"prefix has {len(prefix_letters)} letters "
                              f"but {len(prefix_signs)} signs")
    if len(prefix_letters) > max_len:
        raise ValidationError(f"prefix of {len(prefix_letters)} symbols is longer "
                              f"than max_len {max_len}")
    kernel = _agree_exhaustive
    if not _sums_below_inf(max_len, dist, weights):
        kernel = _fallback.graev_agree_exhaustive
    return kernel(nl, dist, weights, max_len, prefix_letters, prefix_signs)


__all__ = [
    "BACKEND",
    "INF",
    "floyd_warshall_capped",
    "graev_agree_exhaustive",
    "graev_norm_bruteforce",
    "graev_norm_dp",
    "is_bikatetov",
    "iter_pairings",
    "minplus_product",
]
