"""The golden corpus: the bytes of every CLI mode, pinned in one manifest.

``tests/golden/`` holds small input files and ``manifest.jsonl``, one entry
a line: the argv, run from ``tests/golden/``, its exit code, the sha256 of
its stdout, and its stderr when it exits non-zero or writes any. An entry's
id is its argv. Each entry is checked twice: in-process through
``cli.main`` on the live kernel backend, and in one child interpreter on
the other backend. Nothing here rewrites the manifest. A failing entry is
reported as it reads now, so a deliberate change is a pasted manifest line
that CHANGES.md logs with its reason.

The manifest holds one refusal per guard except two, which no small input
trips quickly:

- ``bikatetov.BIKATETOV_BUDGET``: the cheapest ``theta classify`` refusal
  known takes 6 to 12 s on the pure backend, since the per-leaf product
  and validation are not charged to the budget. ``tests/test_grid.py``
  covers the guard with a patched budget.
- ``bikatetov.SATURATION_GUARD`` of ``theta greatest``: three random
  generators over 4 to 6 points at q <= 8 saturate below its 100,000
  elements (0.08 to 5.2 s, pure).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from urygrid import _kernels
from urygrid.cli import build_parser, main

from conftest import LOAD_EXT, run_child

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = [json.loads(line) for line in (GOLDEN / "manifest.jsonl").read_text().splitlines()]


def entry_id(argv) -> str:
    return " ".join(argv)


def current(argv) -> dict:
    """The manifest entry of ``argv`` as it reads now, run in-process from
    ``tests/golden/``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    entry = {"argv": list(argv), "exit": code,
             "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if code or err.getvalue():
        entry["stderr"] = err.getvalue()
    return entry


def modes() -> set[tuple[str, str | None]]:
    """(subcommand, action) of every mode the parser offers; the action is
    None for a subcommand that takes none."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {(name, action) for name, sub in subparsers.choices.items()
            for action in next((a.choices for a in sub._actions if a.dest == "action"),
                               [None])}


MODES = modes()


def parse(argv) -> tuple[bool, tuple[str, str | None], list[str]]:
    """Whether ``argv`` asks for JSON, its mode, and the arguments after
    the mode."""
    json_mode = argv[:1] == ["--json"]
    name, *rest = argv[json_mode:]
    if rest and (name, rest[0]) in MODES:
        return json_mode, (name, rest[0]), rest[1:]
    return json_mode, (name, None), rest


def build_cases() -> list[tuple[str, ...]]:
    """The arguments after ``approximant build`` of every manifest entry that
    builds, in manifest order."""
    parsed = (parse(e["argv"]) for e in MANIFEST if e["exit"] == 0)
    return [tuple(args) for _, mode, args in parsed if mode == ("approximant", "build")]


def test_ids_are_unique_and_each_error_is_one_line():
    assert len({entry_id(e["argv"]) for e in MANIFEST}) == len(MANIFEST)
    for e in MANIFEST:
        if e["exit"] in (1, 2):
            assert e["stderr"].endswith("\n") and e["stderr"].count("\n") == 1, e


@pytest.mark.parametrize("entry", MANIFEST, ids=[entry_id(e["argv"]) for e in MANIFEST])
def test_entry(entry):
    now = current(entry["argv"])
    assert now == entry, "the entry now reads:\n" + json.dumps(now)


# runs every manifest entry through ``current`` in this one interpreter and
# prints the live backend and the entries as they read now
CHILD = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from test_golden import MANIFEST, current
from urygrid import _kernels
print(json.dumps([_kernels.BACKEND, [current(e["argv"]) for e in MANIFEST]]))
"""


def test_on_the_other_backend(request):
    if _kernels.BACKEND == "python":
        ext = request.getfixturevalue("compiled_ext")
        child = run_child(["-c", LOAD_EXT + CHILD, ext.__file__], pure=False)
    else:
        child = run_child(["-c", CHILD], pure=True)
    assert child.returncode == 0, child.stderr.decode()
    backend, entries = json.loads(child.stdout)
    assert backend == ("compiled" if _kernels.BACKEND == "python" else "python")
    moved = [json.dumps(now) for now, e in zip(entries, MANIFEST) if now != e]
    assert not moved, "the entries now read:\n" + "\n".join(moved)


def test_every_mode_has_a_text_and_a_json_entry():
    pinned = {parse(e["argv"])[:2] for e in MANIFEST if e["exit"] == 0}
    missing = {(j, mode) for mode in MODES for j in (False, True)} - pinned
    assert not missing, sorted(missing, key=str)
