"""Kernel selection: compiled extension when present, pure Python otherwise.

The extension is the hand-written ``_ext.c``; ``_fallback`` is its pure
twin, and the reference it is tested against. The fallback's names are
bound first and the extension's kernels, when it imports, over them; set
URYGRID_PURE=1 to keep the fallback even when the extension is built.
``BACKEND`` reports which implementation is live. Every name is the
backend's own kernel, unwrapped, and takes positional arguments only (a
keyword raises TypeError); the Graev kernels and floyd_warshall_capped
raise ValueError on malformed input, floyd_warshall_capped also on a cap
of INF or more.
"""

import os

from ._fallback import (BACKEND, INF, floyd_warshall_capped, graev_agree_exhaustive,
                        graev_norm_bruteforce, graev_norm_dp, is_bikatetov, minplus_product)

if os.environ.get("URYGRID_PURE") != "1":
    try:
        from ._ext import (BACKEND, INF, floyd_warshall_capped,  # noqa: F811
                           graev_agree_exhaustive, graev_norm_bruteforce, graev_norm_dp,
                           is_bikatetov, minplus_product)
    except ImportError:
        pass

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
