"""The ``selftest`` command: every law in ``urygrid.laws`` at quick scale,
one pass/fail line each. The acceptance suite runs the same laws at full
scale."""

from __future__ import annotations

import json
import sys

from .laws import LAWS, QUICK


def run(json_mode: bool = False) -> int:
    results = []
    for name, law in LAWS:
        try:
            law(QUICK)
            results.append({"name": name, "ok": True, "detail": None})
            if not json_mode:
                print(f"PASS {name}")
        except Exception as e:  # a failure here is a library bug
            results.append({"name": name, "ok": False, "detail": f"{type(e).__name__}: {e}"})
            if not json_mode:
                print(f"FAIL {name}: {type(e).__name__}: {e}")
    ok = all(r["ok"] for r in results)
    if json_mode:
        sys.stdout.write(json.dumps({"results": results, "ok": ok},
                                    sort_keys=True, separators=(",", ":")) + "\n")
    else:
        print(("all checks passed" if ok else "CHECKS FAILED")
              + f" ({sum(r['ok'] for r in results)}/{len(results)})")
    return 0 if ok else 3
