"""Kernel selection: compiled extension when present, pure Python otherwise.

The extension is the hand-written ``_ext.c``; ``_fallback`` is its pure
twin, and the reference it is tested against. The fallback's names are
bound first and the extension's kernels, when it imports, over them; set
URYGRID_PURE=1 to keep the fallback even when the extension is built.
``BACKEND`` reports which implementation is live.
"""

import os

from ..errors import ValidationError
from ._fallback import (BACKEND, INF, floyd_warshall_capped,
                        graev_agree_exhaustive as _agree_exhaustive,
                        graev_norm_bruteforce, graev_norm_dp,
                        is_bikatetov, minplus_product)

if os.environ.get("URYGRID_PURE") != "1":
    try:
        from ._ext import (BACKEND, INF, floyd_warshall_capped,  # noqa: F811
                           graev_agree_exhaustive as _agree_exhaustive,
                           graev_norm_bruteforce, graev_norm_dp, is_bikatetov, minplus_product)
    except ImportError:
        pass


def graev_agree_exhaustive(nl, dist, weights, max_len, prefix_letters=(), prefix_signs=()):
    """The live backend's exhaustive sweep, after checking the prefix, so
    that a prefix of unequal lists or longer than max_len is the library's
    ValidationError on either backend rather than the kernel's
    ValueError."""
    if len(prefix_letters) != len(prefix_signs):
        raise ValidationError(f"prefix has {len(prefix_letters)} letters "
                              f"but {len(prefix_signs)} signs")
    if len(prefix_letters) > max_len:
        raise ValidationError(f"prefix of {len(prefix_letters)} symbols is longer "
                              f"than max_len {max_len}")
    return _agree_exhaustive(nl, dist, weights, max_len, prefix_letters, prefix_signs)


__all__ = [
    "BACKEND",
    "INF",
    "floyd_warshall_capped",
    "graev_agree_exhaustive",
    "graev_norm_bruteforce",
    "graev_norm_dp",
    "is_bikatetov",
    "minplus_product",
]
