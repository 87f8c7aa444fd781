"""The four workloads: seeded inputs, one op, and the op's independent check.

Each workload's ``setup(seed, workdir)`` imports the ``urygrid`` modules it
names in ``modules`` and returns a ``State``; ``op(state, i)`` runs
op number ``i`` of the seeded schedule (cycled) and returns
``(ok, output, units)``: whether every check passed, a canonical text of the
op's output (hashed into the run digest), and how many work units it
completed. Ops call the library through module attributes, never through
references taken at setup, so the traced run's wrappers see every call.

Every check compares a fast route with an independent one by exact
equality, or compares an output with a fact fixed by construction (a word
count, an expected exit code). There are no tolerances.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace


def load(*names):
    """The named ``urygrid`` submodules, as attributes of a namespace."""
    return SimpleNamespace(**{n: importlib.import_module(f"urygrid.{n}") for n in names})


def nonexpanding_weights(dist, q, rng):
    """Random letter weights in [0, q] that change by at most the distance
    between letters: draw, then clip pairwise until stable."""
    n = len(dist)
    k = [rng.randint(0, q) for _ in range(n)]
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                if k[i] > k[j] + dist[i][j]:
                    k[i] = k[j] + dist[i][j]
    return tuple(k)


def random_word(rng, nletters, max_len):
    return tuple((rng.randrange(nletters), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len)))


@dataclass
class State:
    lib: SimpleNamespace
    schedule: list
    extra: dict = field(default_factory=dict)

    def spec(self, i):
        return self.schedule[i % len(self.schedule)]


# ---------------------------------------------------------------------------
class GraevSweep:
    """Criterion 1: the Graev interval DP against pairing enumeration over
    every signed word up to a length bound. Nearly all time is in the
    kernel sweep, so this is where a kernel change shows."""

    name = "graev_sweep"
    unit = "signed words checked"
    tail_pct = 90.0
    nletters = 4
    q = 12
    max_len = 4
    alphabets = 16
    modules = ("spaces", "sweep")

    def expected_words(self):
        return sum((2 * self.nletters) ** k for k in range(self.max_len + 1))

    def setup(self, seed, workdir):
        lib = load(*self.modules)
        rng = random.Random(seed)
        schedule = []
        for _ in range(self.alphabets):
            space = lib.spaces.random_grid_space(self.nletters, self.q, rng.randrange(10 ** 9))
            schedule.append((space.flat(), nonexpanding_weights(space.dist, self.q, rng)))
        return State(lib, schedule)

    def op(self, st, i):
        dist, weights = st.spec(i)
        checked, mismatches = st.lib.sweep.graev_agree_exhaustive(
            self.nletters, list(dist), list(weights), self.max_len, workers=1)
        ok = mismatches == 0 and checked == self.expected_words()
        return ok, f"{checked}/{mismatches}", checked


# ---------------------------------------------------------------------------
class AlgebraMix:
    """Randomized law checks: thousands of tiny kernel calls, so the time
    sits in the Python API around the kernels (conversion, constructor
    revalidation, the Gibbs sampler, frozenset composition). A kernel-only
    speed-up should barely move this workload."""

    name = "algebra_mix"
    unit = "exact equalities checked"
    tail_pct = 99.0
    length = 2048
    alphabets = 16
    modules = ("spaces", "bikatetov", "graev", "gh", "homog")
    # op kinds in turn, with equal weights: semigroup, Graev, GH, orbit
    pattern = "SGHO"

    def setup(self, seed, workdir):
        lib = load(*self.modules)
        rng = random.Random(seed)
        grid = lib.spaces.random_grid_space
        alphabets = []
        for _ in range(self.alphabets):
            space = grid(4, 12, rng.randrange(10 ** 9))
            alphabets.append(lib.graev.WeightedAlphabet.from_space(
                space, nonexpanding_weights(space.dist, 12, rng)))
        # sizes cycle through fixed grids so that every seed's schedule has
        # the same mix of small and large cases; only the contents are random
        schedule = []
        count = {kind: 0 for kind in self.pattern}
        for i in range(self.length):
            kind = self.pattern[i % len(self.pattern)]
            k = count[kind]
            count[kind] += 1
            if kind == "S":
                space = grid(1 + k % 6, 1 + k // 6 % 8, rng.randrange(10 ** 9))
                schedule.append(("S", space, rng.randrange(10 ** 9)))
            elif kind == "G":
                schedule.append(("G", alphabets[rng.randrange(self.alphabets)],
                                 random_word(rng, 4, 10), random_word(rng, 4, 6),
                                 random_word(rng, 4, 7), random_word(rng, 4, 8)))
            elif kind == "H":
                n, q = 1 + k % 6, 2 + k // 6 % 19
                x = grid(n, q, rng.randrange(10 ** 9))
                y = grid(n, q, rng.randrange(10 ** 9))
                y = lib.spaces.FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), q, y.dist)
                schedule.append(("H", x, y))
            else:
                space = grid(2 + k % 2, 2 + k // 2 % 7, rng.randrange(10 ** 9))
                a, b = rng.sample(space.points, 2)
                schedule.append(("O", space, a, b, 3 if space.n == 2 else 2))
        return State(lib, schedule)

    def op(self, st, i):
        spec = st.spec(i)
        return getattr(self, "_op_" + spec[0])(st.lib, *spec[1:])

    @staticmethod
    def _op_S(lib, space, op_seed):
        bk = lib.bikatetov
        rng = random.Random(op_seed)
        f, g, h = (bk.random_bikatetov(space, rng) for _ in range(3))
        fg = bk.product(f, g)
        unit, zero = bk.metric_unit(space), bk.constant_zero(space)
        checks = [
            bk.product(fg, h) == bk.product(f, bk.product(g, h)),
            bk.product(f, unit) == f, bk.product(unit, f) == f,
            bk.product(f, zero) == zero, bk.product(zero, f) == zero,
            bk.star(fg) == bk.product(bk.star(g), bk.star(f)),
            bk.star(bk.star(f)) == f,
            bk.product_via_amalgam(f, g) == fg,
        ]
        return all(checks), f"S{fg.entries}", len(checks)

    @staticmethod
    def _op_G(lib, alphabet, w, u, v, x):
        gv = lib.graev
        norm = gv.graev_norm
        nw = norm(w, alphabet)
        nv = norm(v, alphabet)
        conj = gv.reduce_word(gv.concat(gv.concat(u, v), gv.inverse_word(u)))
        nx = norm(x, alphabet)
        checks = [
            norm(gv.reduce_word(w), alphabet) == nw,
            norm(gv.inverse_word(w), alphabet) == nw,
            norm(conj, alphabet) == nv,
            gv.graev_norm_bruteforce(x, alphabet) == nx,
        ]
        return all(checks), f"G{nw},{nv},{nx}", len(checks)

    @staticmethod
    def _op_H(lib, x, y):
        inst = lib.gh.EnumeratedPair(x, y)
        fast = lib.gh.gh_distance(inst)
        return fast == lib.gh.gh_distance_oracle(inst), f"H{fast}", 1

    @staticmethod
    def _op_O(lib, space, a, b, max_len):
        hm = lib.homog
        stock = [hm.PartialIsometryRelation(space, ((p, r),))
                 for p in space.points for r in space.points]
        got = hm.nu_truncated(stock, a, b, max_len)
        return got.value == space.distance(a, b), f"O{got.value},{got.word}", 1


# ---------------------------------------------------------------------------
class ApproximantGrow:
    """Katetov approximant builds: pure Python `katetov`/`spaces` work with
    no kernel calls, where each added point (a write: `with_point` and a
    full revalidation) is followed by profile rescans (reads)."""

    name = "approximant_grow"
    unit = "points added"
    tail_pct = 90.0
    length = 256
    modules = ("spaces", "katetov")
    # (strategy, max profile support, grid q, point cap), taken in turn with
    # equal weights
    recipes = [("random", 2, 2, 64),   # closes at 16-20 points
               ("random", 3, 2, 32),   # hits the cap; rescans dominate
               ("auto", 2, 2, 64),     # transitive template found
               ("auto", 2, 3, 10)]     # template search fails, falls back

    def setup(self, seed, workdir):
        lib = load(*self.modules)
        rng = random.Random(seed)
        schedule = []
        for i in range(self.length):
            strategy, subset, q, cap = self.recipes[i % len(self.recipes)]
            seed_space = lib.spaces.random_grid_space(1 + i // len(self.recipes) % 2, q,
                                                      rng.randrange(10 ** 9))
            schedule.append((seed_space, subset, q, cap, strategy, rng.randrange(10 ** 6)))
        return State(lib, schedule)

    def op(self, st, i):
        kt = st.lib.katetov
        seed_space, subset, q, cap, strategy, rng_seed = st.spec(i)
        r = kt.build_approximant(seed_space, subset, q, cap, rng_seed=rng_seed,
                                 strategy=strategy)
        space = r.space
        k = seed_space.n
        ok = (space.n == k + r.added
              and all(space.dist[i][:k] == seed_space.dist[i] for i in range(k)))
        # "closed" claims every small profile is realized: the independent
        # full scan must agree. "capped" only claims the budget ran out.
        if r.status == "closed":
            ok = ok and kt.injectivity_check(space, subset).ok
        else:
            ok = ok and r.status == "capped" and space.n >= cap
        if r.strategy == "transitive":
            ok = ok and kt.homogeneity_check(space, 1, max_points=cap).ok
        return ok, f"{r.status},{r.strategy},{space.dist}", r.added


# ---------------------------------------------------------------------------
def _space_obj(space):
    return {"points": list(space.points), "denominator": space.denominator,
            "dist": [list(r) for r in space.dist]}


def _word_text(letters, word):
    return " ".join(letters[l] + ("" if s == 1 else "^-1") for l, s in word)


class CliBatch:
    """One `python -m urygrid.cli --json ...` process per op over a seeded
    corpus of small files: cold start, `fileio` load/validate and emit,
    which no in-process workload touches. The corpus covers every
    subcommand except `selftest` (0.9 s; it would own the tail), the
    `--oracle` twins, and inputs that must be refused with exit 1 or 2."""

    name = "cli_batch"
    unit = "exact checks passed (exit code, stdout, oracle twin)"
    tail_pct = 90.0
    timeout_s = 60
    modules = ("spaces", "bikatetov", "katetov", "cli")

    def corpus(self, lib, rng):
        """(files, entries): file name -> JSON object, and a list of
        (argv, expected exit code, index of the fast twin or None)."""
        grid = lib.spaces.random_grid_space
        bk = lib.bikatetov
        files = {}
        entries = []

        def add(argv, code=0, twin=None):
            entries.append((tuple(argv), code, twin))
            return len(entries) - 1

        n, q = rng.randint(2, 4), rng.choice((2, 4, 6, 8))
        space = grid(n, q, rng.randrange(10 ** 9))
        pts = space.points
        files["space.json"] = _space_obj(space)
        bad = _space_obj(space)
        bad["dist"][0][1] = space.dist[0][1] % q + 1  # now asymmetric
        files["bad.json"] = bad
        add(["validate", "space.json"])
        add(["validate", "bad.json"], 1)

        chain = 4
        files["partial.json"] = {
            "points": [f"c{i}" for i in range(chain)], "denominator": q,
            "entries": [[0 if i == j else (rng.randint(1, q // 2) if abs(i - j) == 1 else None)
                         for j in range(chain)] for i in range(chain)]}
        for i in range(chain - 1):
            files["partial.json"]["entries"][i + 1][i] = files["partial.json"]["entries"][i][i + 1]
        add(["complete", "partial.json"])

        x = grid(2, q, rng.randrange(10 ** 9))
        y = grid(3, q, rng.randrange(10 ** 9))
        files["x.json"] = dict(_space_obj(x), points=["xa", "m"])
        files["y.json"] = dict(_space_obj(y), points=["m", "yb", "yc"])
        add(["amalgam", "x.json", "y.json", "--glue", "m=m"])

        d01 = space.dist[0][1]
        v0 = rng.randint(1, q)
        v1 = rng.randint(max(1, abs(v0 - d01)), min(q, v0 + d01))
        files["f.json"] = {"space": "space.json", "support": list(pts[:2]), "values": [v0, v1]}
        for action in ("check", "extend", "realize"):
            add(["katetov", action, "f.json"])

        files["seed.json"] = {"points": ["a"], "denominator": 2, "dist": [[0]]}
        # subset 1 keeps builds to a few ms; approximant_grow covers big ones
        add(["approximant", "build", "seed.json", "--subset", "1", "--grid", "2",
             "--cap", "24", "--strategy", "random", "--seed", str(rng.randrange(1000))])
        built = lib.katetov.build_approximant(
            lib.spaces.FiniteMetricSpace(("a",), 2, ((0,),)), 1, 2, 64,
            rng_seed=rng.randrange(1000), strategy="random")
        files["built.json"] = _space_obj(built.space)
        # a closed build must verify clean: exit 0 is the independent check
        add(["approximant", "verify", "built.json", "--subset", "1"],
            0 if built.status == "closed" else 1)

        add(["isogroup", "space.json"])
        files["big.json"] = _space_obj(grid(11, 3, rng.randrange(10 ** 9)))
        add(["isogroup", "big.json"], 2)

        files["m1.json"] = {"space": "space.json",
                            "entries": [list(r) for r in bk.random_bikatetov(space, rng).entries]}
        files["m2.json"] = {"space": "space.json",
                            "entries": [list(r) for r in bk.random_bikatetov(space, rng).entries]}
        add(["theta", "product", "m1.json", "m2.json"])
        add(["theta", "star", "m1.json"])
        add(["theta", "bf", "space.json", "--points", pts[rng.randrange(n)]])
        add(["theta", "invert", "m1.json"])
        small = grid(2, rng.randint(2, 3), rng.randrange(10 ** 9))
        files["s2.json"] = _space_obj(small)
        files["n1.json"] = {"space": "s2.json",
                            "entries": [list(r) for r in bk.random_bikatetov(small, rng).entries]}
        files["n2.json"] = {"space": "s2.json",
                            "entries": [list(r) for r in bk.random_bikatetov(small, rng).entries]}
        add(["theta", "classify", "s2.json"])
        add(["theta", "greatest", "n1.json", "n2.json"])

        alpha = grid(3, 12, rng.randrange(10 ** 9))
        letters = alpha.points
        weights = list(nonexpanding_weights(alpha.dist, 12, rng))
        files["word.json"] = {"alphabet": _space_obj(alpha), "weights": weights,
                              "word": _word_text(letters, random_word(rng, 3, 8))}
        files["uv.json"] = {"alphabet": _space_obj(alpha), "weights": weights,
                            "u": _word_text(letters, random_word(rng, 3, 4)),
                            "v": _word_text(letters, random_word(rng, 3, 4))}
        files["badword.json"] = {"alphabet": _space_obj(alpha), "weights": weights,
                                 "word": "zz"}
        for action, name in (("norm", "word.json"), ("dist", "uv.json")):
            fast = add(["graev", action, name])
            add(["graev", action, name, "--oracle"], 0, fast)
        add(["graev", "norm", "badword.json"], 1)

        a, b = pts[0], pts[1]
        files["rels.json"] = {"space": "space.json",
                              "relations": [{"name": "s", "pairs": [[a, b]]},
                                            {"name": "t", "pairs": [[p, p] for p in pts]},
                                            {"name": "u", "pairs": [[b, a]]}],
                              "word": "s t^-1 u"}
        add(["homog", "phi", "rels.json"])
        add(["homog", "lemma42", "rels.json", "--word", "s u^-1"])
        signs = [rng.choice("+-") for _ in range(2)]
        # "--signs=-" form: a bare "-" or "-,-" would parse as an option
        add(["homog", "lemma43", "rels.json", "--case", "1", "--names", "s,u",
             "--signs=" + signs[0]])
        add(["homog", "lemma43", "rels.json", "--case", "2", "--names", "s,t,u",
             "--signs=" + ",".join(signs)])
        add(["homog", "lemma43", "rels.json", "--case", "3", "--names", "t,s",
             "--signs=" + ",".join(signs)])
        stock_space = grid(rng.randint(2, 3), q, rng.randrange(10 ** 9))
        files["stock.json"] = {"space": _space_obj(stock_space),
                               "relations": [{"name": f"r{i}", "pairs": [[p, r]]}
                                             for i, (p, r) in enumerate(
                                                 (p, r) for p in stock_space.points
                                                 for r in stock_space.points)]}
        add(["homog", "nu", "stock.json", "--from", "p0", "--to", "p1", "--max-len", "2"])

        m = rng.randint(1, 4)
        files["inst.json"] = {"X": _space_obj(grid(m, q, rng.randrange(10 ** 9))),
                              "Y": _space_obj(grid(m, q, rng.randrange(10 ** 9)))}
        files["inst.json"]["Y"]["points"] = [f"y{i}" for i in range(m)]
        fast = add(["gh", "dist", "inst.json"])
        add(["gh", "dist", "inst.json", "--oracle"], 0, fast)

        files["hrel.json"] = {"space": _space_obj(small), "pairs": [[0, 0]]}
        add(["relations", "k", "s2.json"])
        add(["relations", "h", "hrel.json"])
        add(["relations", "hinv", "n1.json"])
        add(["relations", "roundtrip", "n1.json"])

        add(["validate", "missing.json"], 1)
        add(["validate", "space.json", "--frobnicate"], 1)
        return files, [(("--json",) + argv, code, twin) for argv, code, twin in entries]

    def setup(self, seed, workdir):
        lib = load(*self.modules)
        rng = random.Random(seed)
        files, entries = self.corpus(lib, rng)
        os.makedirs(workdir, exist_ok=True)
        for name, obj in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        refs = []
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for argv, _code, _twin in entries:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    lib.cli.main(list(argv))
                refs.append(out.getvalue().encode("utf-8"))
        finally:
            os.chdir(cwd)
        schedule = [(argv, code, refs[i], refs[twin] if twin is not None else None)
                    for i, (argv, code, twin) in enumerate(entries)]
        return State(lib, schedule, {"workdir": workdir, "files": files})

    def op(self, st, i, shim=None, env=None):
        """One child process; ``shim`` replaces ``-m urygrid.cli`` with the
        tracing stand-in."""
        argv, code, ref, twin_ref = st.spec(i)
        child = [sys.executable, *(["-m", "urygrid.cli"] if shim is None else [shim]), *argv]
        proc = subprocess.run(child, cwd=st.extra["workdir"], env=env,
                              capture_output=True, timeout=self.timeout_s)
        checks = [proc.returncode == code, proc.stdout == ref]
        if twin_ref is not None:
            checks.append(ref == twin_ref)
        return all(checks), f"{proc.returncode}:{proc.stdout.decode('utf-8', 'replace')}", len(checks)


WORKLOADS = {w.name: w for w in (GraevSweep(), AlgebraMix(), ApproximantGrow(), CliBatch())}
