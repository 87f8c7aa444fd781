"""Tests of the benchmark itself (not collected by the library's test run).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = {"graev_sweep": 3, "algebra_mix": 40, "approximant_grow": 4, "cli_batch": 4}


def bench(workload, seed, *extra, patch="", cwd=ROOT):
    """Run the benchmark for one second in a fresh interpreter, optionally
    after executing ``patch`` (with ``workloads`` imported); returns (exit
    code, meta line, result line) with the JSON lines parsed when present."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", *extra]
    script = "\n".join([
        f"import sys; sys.path.insert(0, {os.path.join(cwd, 'perfbench')!r})",
        "import workloads", patch, f"import run; sys.exit(run.main({args!r}))"])
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    parsed = []
    for line in lines[-2:]:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    while len(parsed) < 2:
        parsed.insert(0, None)
    return proc.returncode, parsed[0], parsed[1]


def digests(workload, seed, count, workdir):
    """Set up and run ``count`` ops in a fresh interpreter (so with a fresh
    hash seed); returns the inputs digest, the output digest and the number
    of failed ops."""
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {HERE!r})",
        "import run",
        "from workloads import WORKLOADS",
        "run.pin_environment()",
        f"w = WORKLOADS[{workload!r}]",
        f"state, _ = run.setup(w, {seed}, {str(workdir)!r})",
        f"phase = run.run_ops(w.op, state, count={count})",
        "print(json.dumps([run.inputs_digest(state), phase.digest.hexdigest(), phase.failed]))"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_outputs(workload, tmp_path):
    inputs, outputs, failed = digests(workload, 3, OPS[workload], tmp_path / "a")
    assert failed == 0
    assert digests(workload, 3, OPS[workload], tmp_path / "b") == [inputs, outputs, 0]
    assert digests(workload, 4, 1, tmp_path / "c")[0] != inputs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    """The traced replay must reproduce the untraced outputs (a mismatch
    fails the run) and report exactly the declared per-layer metrics."""
    code, meta, res = bench(workload, 5, "--trace", "1")
    assert code == 0 and res["correct"], meta
    assert meta["meta"]["env"]["URYGRID_WORKERS"] == "1"
    assert res["attempted"] == 2 * meta["summary"]["traced_ops"] > 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == spans.PER_LAYER
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "urygrid" or name.startswith("urygrid."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    return out


@pytest.mark.parametrize("workload", ["algebra_mix", "approximant_grow", "graev_sweep"])
def test_tracing_changes_no_output_and_restores_bindings(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("URYGRID_WORKERS", "1")
    monkeypatch.syspath_prepend(run.SRC)
    w = WORKLOADS[workload]
    state, _ = run.setup(w, 7, str(tmp_path))
    before = _bindings()
    plain = run.run_ops(w.op, state, count=OPS[workload])
    with spans.Tracer() as tracer:
        assert _bindings() != before
        traced = run.run_ops(w.op, state, count=OPS[workload])
    assert _bindings() == before
    assert traced.digest.hexdigest() == plain.digest.hexdigest()
    assert plain.failed == traced.failed == 0
    assert sum(tracer.calls.values()) > 0


def test_corrupted_word_count_fails_the_run():
    patch = ("workloads.GraevSweep.expected_words = "
             "lambda self: 1 + sum(8 ** k for k in range(self.max_len + 1))")
    code, meta, res = bench("graev_sweep", 1, patch=patch)
    assert code != 0
    assert res["correct"] is False and res["failed"] == res["attempted"] > 0
    assert meta["summary"]["fail_ratio"] > 0


def test_flipped_expected_exit_code_fails_the_run():
    patch = ("_corpus = workloads.CliBatch.corpus; "
             "workloads.CliBatch.corpus = lambda self, lib, rng: "
             "(lambda f, e: (f, [(e[0][0], 1 - e[0][1], e[0][2])] + e[1:]))"
             "(*_corpus(self, lib, rng))")
    code, meta, res = bench("cli_batch", 1, patch=patch)
    assert code != 0
    # only the first corpus entry is corrupted, and one second of ops does
    # not reach its second turn
    assert res["correct"] is False and res["failed"] == 1
    assert meta["summary"]["fail_ratio"] == 1 / res["attempted"]


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == spans.PER_LAYER
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
    _, _, res = bench("graev_sweep", 1)
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in declared["end_to_end"]]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graev_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
