"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the package's optimized
paths: isomorphism by trying all permutations, connectivity by flood fill,
graph generation by iterating all edge subsets.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sysconfig
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import digitop

# A build splits each level into DIGITOP_THREADS slices and starts that many
# workers, by default one per CPU; pin it so that the suite starts pools of
# the same small size on any machine.  Tests that need another count set it.
os.environ.setdefault("DIGITOP_THREADS", "2")

settings.register_profile(
    "digitop",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("digitop")


def edges_of(rows) -> set[tuple[int, int]]:
    out = set()
    for a, row in enumerate(rows):
        for b in range(len(rows)):
            if (row >> b) & 1 and a < b:
                out.add((a, b))
    return out


def rows_from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


def permuted_rows(rows, perm) -> tuple[int, ...]:
    """Relabel so that old point ``v`` becomes ``perm[v]``."""
    n = len(rows)
    out = [0] * n
    for a, row in enumerate(rows):
        r = 0
        for b in range(n):
            if (row >> b) & 1:
                r |= 1 << perm[b]
        out[perm[a]] = r
    return tuple(out)


def brute_isomorphic(rows_a, rows_b) -> bool:
    """Permutation-search isomorphism oracle; fine for n <= 8."""
    n = len(rows_a)
    if n != len(rows_b):
        return False
    if sorted(r.bit_count() for r in rows_a) != sorted(r.bit_count() for r in rows_b):
        return False
    target = tuple(rows_b)
    for perm in permutations(range(n)):
        if permuted_rows(rows_a, perm) == target:
            return True
    return False


def flood_connected(rows) -> bool:
    n = len(rows)
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        fresh = rows[v] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            stack.append(low.bit_length() - 1)
    return seen == (1 << n) - 1


def all_labeled_connected(n: int):
    """Every connected labeled graph on n points, as row tuples."""
    pairs = list(combinations(range(n), 2))
    for picked in range(1 << len(pairs)):
        rows = [0] * n
        for k, (a, b) in enumerate(pairs):
            if (picked >> k) & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        if flood_connected(rows):
            yield tuple(rows)


def random_connected_rows(rng, n: int, p: float = 0.4) -> tuple[int, ...]:
    while True:
        rows = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        if flood_connected(rows):
            return tuple(rows)


@pytest.fixture
def rng():
    import random

    return random.Random(0x5EED)


def subprocess_env(**overrides: str) -> dict[str, str]:
    """The current environment for a child interpreter that imports this
    same ``digitop`` package, with ``overrides`` applied."""
    env = dict(os.environ, **overrides)
    package_root = str(Path(digitop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def compile_core():
    """``compile_core(target, *flags)`` compiles the committed ``_core.c``
    with the system C compiler into the extension file ``target``.

    Skips only when there is no C compiler or no ``Python.h``; a failed
    compile is an error that shows the compiler's output.
    """
    source = Path(digitop.__file__).resolve().parent / "_core.c"
    compiler = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    if not (Path(include) / "Python.h").is_file():
        pytest.skip(f"no Python.h in {include}")

    def compile_to(target: Path, *flags: str) -> None:
        proc = subprocess.run(
            [compiler, "-O2", "-fwrapv", "-DNDEBUG", "-shared", "-fPIC", *flags,
             "-I", include, str(source), "-o", str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    return compile_to


@pytest.fixture(scope="session")
def core_twin(compile_core, tmp_path_factory):
    """The committed ``_core.c`` compiled into a temporary directory and
    loaded from there, without installing it."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = tmp_path_factory.mktemp("twin") / f"_core{suffix}"
    compile_core(target)
    return load_core(target)


def load_core(path: Path):
    """The compiled extension at ``path``, loaded as ``digitop._core``
    without touching ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("digitop._core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
