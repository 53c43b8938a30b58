"""Backend selection and compiled/pure parity on identical inputs."""

import importlib.util
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import _kernels, _pure

from .conftest import random_connected_rows, subprocess_env

_HAVE_CORE = importlib.util.find_spec("digitop._core") is not None
needs_core = pytest.mark.skipif(not _HAVE_CORE, reason="compiled extension not built")


def test_backend_value():
    assert _kernels.BACKEND in ("cython", "python")
    if _HAVE_CORE:
        assert _kernels.BACKEND == "cython"


@needs_core
@given(st.integers(1, 16), st.randoms(use_true_random=False))
def test_canonical_rows_parity(n, rand):
    from digitop import _core

    rows = list(random_connected_rows(rand, n))
    assert _core.canonical_rows(n, list(rows)) == _pure.canonical_rows(n, list(rows))


# The pure one-step walk has to exhaust a stream bounded by prod(deg+1),
# which explodes on dense images; n <= 8 keeps the worst example tractable.


@needs_core
@settings(max_examples=40)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_classify_flags_parity(n, rand):
    from digitop import _core

    rows = list(random_connected_rows(rand, n))
    assert _core.classify_flags(n, list(rows)) == _pure.classify_flags(n, list(rows))


@needs_core
@settings(max_examples=40)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_min_image_parity(n, rand):
    from digitop import _core

    rows = list(random_connected_rows(rand, n))
    assert _core.min_image_nonsurjective(n, list(rows)) == _pure.min_image_nonsurjective(
        n, list(rows)
    )


@needs_core
def test_lattice_rows_parity():
    from digitop import _core

    cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 1)]
    for kind in (4, 8):
        assert _core.lattice_rows(kind, cells) == _pure.lattice_rows(kind, cells)


def _backend_in_subprocess(env_value):
    script = "import digitop._kernels as k; print(k.BACKEND)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=subprocess_env(DIGITOP_BACKEND=env_value),
    )
    return proc


def test_forced_python_backend():
    proc = _backend_in_subprocess("python")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "python"


def test_unknown_backend_rejected():
    proc = _backend_in_subprocess("fortran")
    assert proc.returncode != 0
    assert "unknown DIGITOP_BACKEND" in proc.stderr


@needs_core
def test_forced_cython_backend():
    proc = _backend_in_subprocess("cython")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "cython"
