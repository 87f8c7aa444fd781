import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

import urygrid._kernels
from urygrid.bikatetov import random_bikatetov
from urygrid.graev import WeightedAlphabet
# the library's one copy of each helper; random_word is for the test modules
from urygrid.laws import random_space, random_weights, random_word  # noqa: F401
from urygrid.spaces import FiniteMetricSpace, random_grid_space


KERNELS_DIR = os.path.dirname(urygrid._kernels.__file__)

# loads the extension the compiled_ext fixture built under its own name
# before urygrid is imported, so the library picks it as its backend
LOAD_EXT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("urygrid._kernels._ext", sys.argv[1])
sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sys.modules[spec.name])
"""


def run_child(argv, pure, stdin=None, env=None, timeout=60):
    """Run a Python child on this checkout's source, with the pure backend
    forced (pure) or left to pick the extension, and env added to its
    environment; returns the completed process, stdout and stderr as bytes."""
    env = {**os.environ, **(env or {})}
    env.pop("URYGRID_PURE", None)
    if pure:
        env["URYGRID_PURE"] = "1"
    src = os.path.dirname(os.path.dirname(urygrid.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, input=stdin,
                          capture_output=True, timeout=timeout)


@pytest.fixture(scope="session")
def compiled_ext(tmp_path_factory):
    """The committed _ext.c compiled with the system C compiler, warnings
    as errors, and loaded under its own name, urygrid._kernels._ext, but
    left out of sys.modules: the backend the library picked at import stays
    the live one. Skips only when there is no C compiler or no Python
    headers."""
    cc = shutil.which("cc")
    paths = sysconfig.get_paths()
    includes = sorted({paths["include"], paths["platinclude"]})
    if cc is None or not any(os.path.exists(os.path.join(d, "Python.h")) for d in includes):
        pytest.skip("no C compiler or no Python headers")
    out = tmp_path_factory.mktemp("ext") / ("_ext" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
                            *(f"-I{d}" for d in includes),
                            os.path.join(KERNELS_DIR, "_ext.c"), "-o", str(out)],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("urygrid._kernels._ext", out)
    ext = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ext)
    return ext


@pytest.fixture
def two_point_q4():
    return FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0)))


@pytest.fixture
def two_point_q2():
    return FiniteMetricSpace(("a", "b"), 2, ((0, 1), (1, 0)))


@pytest.fixture
def triangle_q2():
    return FiniteMetricSpace(("a", "b", "c"), 2, ((0, 1, 1), (1, 0, 1), (1, 1, 0)))


@pytest.fixture
def path_q4():
    # four points in a row, consecutive gaps 1/4
    return FiniteMetricSpace(
        ("a", "b", "c", "d"), 4,
        ((0, 1, 2, 3), (1, 0, 1, 2), (2, 1, 0, 1), (3, 2, 1, 0)))


def random_alphabet(rng, n=4, q=12):
    space = random_grid_space(n, q, rng.randrange(10 ** 9))
    return WeightedAlphabet.from_space(space, random_weights(space, rng))


def with_doubled_point(space, rng):
    """The pseudometric space with a twin, at distance 0, of a random point."""
    j = rng.randrange(space.n)
    rows = [row + (row[j],) for row in space.dist]
    rows.append(rows[j][:-1] + (0,))
    return FiniteMetricSpace(space.points + ("twin",), space.denominator,
                             tuple(rows), pseudo=True)


def random_matrix_pair(rng, max_n=4, max_q=8):
    space = random_space(rng, max_n, max_q)
    return random_bikatetov(space, rng), random_bikatetov(space, rng)
