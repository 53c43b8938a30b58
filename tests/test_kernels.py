"""Backend selection and compiled/pure parity on identical inputs."""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import _kernels, _pure, enumerator
from digitop.enumerator import abstract_children, enumerate_abstract_connected, grow_masks
from digitop.homotopy import _induced_subimage
from digitop.image import LatticeImage, graph6_decode, lattice_to_image

from .conftest import load_core, permuted_rows, random_connected_rows, subprocess_env

_HAVE_CORE = importlib.util.find_spec("digitop._core") is not None
needs_core = pytest.mark.skipif(not _HAVE_CORE, reason="compiled extension not built")


def test_backend_value():
    assert _kernels.BACKEND in ("cython", "python")
    if _HAVE_CORE:
        assert _kernels.BACKEND == "cython"


@given(st.integers(1, 16), st.randoms(use_true_random=False))
def test_canonical_rows_parity(core_twin, n, rand):
    rows = list(random_connected_rows(rand, n))
    assert core_twin.canonical_rows(n, list(rows)) == _pure.canonical_rows(n, list(rows))


def test_canonical_rows_parity_on_build_inputs(core_twin, monkeypatch):
    """Both labelers return the same tuple on every graph the builds label:
    each child that abstract generation labels up to n = 7, and the rows of
    each orbit-least cell set of adj4 n <= 9 and adj8 n <= 6."""
    graphs = []
    label = _kernels.canonical_rows

    def recorded(n, rows):
        graphs.append((n, list(rows)))
        return label(n, rows)

    monkeypatch.setattr(_kernels, "canonical_rows", recorded)
    codes = ["@"]
    for _ in range(2, 8):
        codes = abstract_children(codes)
    assert (len(codes), len(graphs)) == (853, 1028)
    monkeypatch.undo()
    for kind, top in ((4, 9), (8, 6)):
        for n in range(1, top + 1):
            for mask in grow_masks(kind, n):
                if enumerator._least_in_orbit(mask):
                    graphs.append((n, _pure.lattice_rows(kind, enumerator._witness_cells(mask))))
    assert len(graphs) == 1028 + 1818 + 648  # and the free polyominoes and polykings
    for n, rows in graphs:
        assert core_twin.canonical_rows(n, rows) == _pure.canonical_rows(n, rows), rows


# classify_flags has to exhaust a one-step stream bounded by prod(deg+1) on
# both twins, which explodes on dense images; n <= 8 keeps the worst example
# tractable.  min_image_nonsurjective prunes that stream by its bound, so the
# twins agreeing is no oracle for it: the exhaustive fold below is.


@settings(max_examples=40)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_classify_flags_parity(core_twin, n, rand):
    rows = list(random_connected_rows(rand, n))
    assert core_twin.classify_flags(n, list(rows)) == _pure.classify_flags(n, list(rows))


@settings(max_examples=40)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_min_image_parity(core_twin, n, rand):
    rows = list(random_connected_rows(rand, n))
    assert core_twin.min_image_nonsurjective(n, list(rows)) == _pure.min_image_nonsurjective(
        n, list(rows)
    )


def test_one_step_kernels_parity_exhaustive(core_twin):
    """Both one-step walkers agree on every connected class with n <= 7."""
    images = [graph6_decode(c) for n in range(1, 8) for c in enumerate_abstract_connected(n)]
    assert len(images) == 996
    for image in images:
        n, rows = image.n, list(image.rows)
        assert core_twin.classify_flags(n, rows) == _pure.classify_flags(n, rows), rows
        assert core_twin.min_image_nonsurjective(n, rows) == _pure.min_image_nonsurjective(
            n, rows
        ), rows


def _eden_animal(rng, size):
    """Eden growth: a random 4-neighbour of a random cell, until ``size`` cells."""
    cells = {(0, 0)}
    while len(cells) < size:
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        cells.add((x + dx, y + dy))
    return frozenset(cells)


def test_one_step_kernels_parity_on_animals(core_twin):
    """Both one-step walkers agree on 4-adjacency animals of 16..24 cells, the
    sizes the core query reduces, and on every image along each reduction."""
    rng = random.Random(0xA11)
    for size in range(16, 25):
        for _ in range(4):
            image = lattice_to_image(LatticeImage(4, _eden_animal(rng, size)))
            while True:
                n, rows = image.n, list(image.rows)
                assert core_twin.classify_flags(n, rows) == _pure.classify_flags(n, rows), rows
                keep = core_twin.min_image_nonsurjective(n, rows)
                assert keep == _pure.min_image_nonsurjective(n, rows), rows
                if keep is None:
                    break
                image = _induced_subimage(image, keep)


def _exhaustive_min_image(n, rows):
    """The least non-surjective image set over the whole unpruned stream."""
    full = (1 << n) - 1
    best = 0
    for _, image, _ in _pure.one_step_maps(n, rows):
        if image != full and (not best or _pure._image_less(image, best)):
            best = image
    return tuple(_pure._bits(best)) if best else None


@pytest.fixture(scope="module")
def min_image_cases():
    """(n, rows, exhaustive answer) for every class with n <= 7 under a seeded
    relabeling, and for every image along the reduction of seeded Eden
    animals of 16..24 cells."""
    rng = random.Random(0xB0B)
    cases = []
    for n in range(1, 8):
        for code in enumerate_abstract_connected(n):
            perm = list(range(n))
            rng.shuffle(perm)
            rows = list(permuted_rows(graph6_decode(code).rows, perm))
            cases.append((n, rows, _exhaustive_min_image(n, rows)))
    assert len(cases) == 996
    for size in range(16, 25):
        for _ in range(4):
            image = lattice_to_image(LatticeImage(4, _eden_animal(rng, size)))
            while True:
                n, rows = image.n, list(image.rows)
                keep = _exhaustive_min_image(n, rows)
                cases.append((n, rows, keep))
                if keep is None:
                    break
                image = _induced_subimage(image, keep)
    return cases


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_min_image_bound_matches_exhaustive(backend, min_image_cases, request):
    """The bounded search returns the exhaustive least image set, so every
    reduction chain it drives is the unpruned one."""
    kernels = _pure if backend == "pure" else request.getfixturevalue("core_twin")
    for n, rows, expected in min_image_cases:
        assert kernels.min_image_nonsurjective(n, list(rows)) == expected, rows


def test_least_completion_is_least_image():
    """``_pure._least_completion(P, R)`` is the least of every S with
    P <= S <= P | R, in ascending tuple order, on all 7-bit P != 0 and R."""
    for placed in range(1, 1 << 7):
        for reach in range(1 << 7):
            bound = _pure._least_completion(placed, reach)
            free = reach & ~placed
            completions = []
            extra = free
            while True:  # every subset of free, down to the empty one
                completions.append(placed | extra)
                if not extra:
                    break
                extra = (extra - 1) & free
            for s in completions:
                assert not _pure._image_less(s, bound), (placed, reach, s)
            assert bound == min(completions, key=lambda s: tuple(_pure._bits(s)))


def test_image_less_is_ascending_tuple_order():
    """``_pure._image_less`` compares image masks as ascending label tuples."""

    def less(a, b):
        return tuple(_pure._bits(a)) < tuple(_pure._bits(b))

    for a in range(1, 1 << 7):
        for b in range(1, 1 << 7):
            assert _pure._image_less(a, b) == less(a, b), (a, b)
    rng = random.Random(62)
    for _ in range(5000):
        a = rng.getrandbits(62) or 1
        # b keeps a's labels below a random cut, so long shared prefixes occur.
        cut = rng.randrange(63)
        b = (a & ((1 << cut) - 1)) | (rng.getrandbits(62) >> cut << cut) or 1
        assert _pure._image_less(a, b) == less(a, b), (a, b)
        assert _pure._image_less(b, a) == less(b, a), (a, b)


def test_lattice_rows_parity(core_twin):
    cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 1)]
    for kind in (4, 8):
        assert core_twin.lattice_rows(kind, cells) == _pure.lattice_rows(kind, cells)


def _path_rows(n):
    return [(1 << v - 1 if v else 0) | (1 << v + 1 if v + 1 < n else 0) for v in range(n)]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernel_size_contract(backend, request):
    """Both backends take 1..62 points with rows within 0..n-1 and raise the
    same ValueError outside."""
    kernels = _pure if backend == "pure" else request.getfixturevalue("core_twin")
    with pytest.raises(ValueError, match=r"^point count 0 outside 1\.\.62$"):
        kernels.canonical_rows(0, [])
    with pytest.raises(ValueError, match=r"^point count 63 outside 1\.\.62$"):
        kernels.classify_flags(63, _path_rows(63))
    with pytest.raises(ValueError, match=r"^point count 0 outside 1\.\.62$"):
        kernels.min_image_nonsurjective(0, [])
    with pytest.raises(ValueError, match=r"^cell count 63 outside 1\.\.62$"):
        kernels.lattice_rows(4, [(x, 0) for x in range(63)])

    assert kernels.canonical_rows(1, [0]) == (0,)
    assert kernels.min_image_nonsurjective(1, [0]) is None
    assert kernels.lattice_rows(4, [(x, 0) for x in range(62)]) == _path_rows(62)
    assert kernels.classify_flags(62, _path_rows(62)) == (True, True, False)

    # Each of the first n rows must lie within bits 0..n-1; rows past n are
    # not read.  In C, bits 62 and 63 would index past the scratch arrays.
    wide = _path_rows(62)
    wide[61] |= 1 << 63
    bad_rows = [
        (3, [0b110, 0b1001, 0b011], r"^row 1 has bits outside 0\.\.2$"),
        (2, [-1, 1], r"^row 0 has bits outside 0\.\.1$"),
        (2, [0b10, -4], r"^row 1 has bits outside 0\.\.1$"),
        (62, wide, r"^row 61 has bits outside 0\.\.61$"),
        (3, [0b110, 1 << 100, 0b011], r"^row 1 has bits outside 0\.\.2$"),
    ]
    for n, rows, message in bad_rows:
        for kernel in (kernels.canonical_rows, kernels.classify_flags,
                       kernels.min_image_nonsurjective):
            with pytest.raises(ValueError, match=message):
                kernel(n, rows)
    assert kernels.classify_flags(2, [0b10, 0b01, -1, 1 << 70]) == (True, True, False)

    # The walker itself rejects a disconnected graph; callers add no check.
    for kernel in (kernels.classify_flags, kernels.min_image_nonsurjective):
        with pytest.raises(ValueError, match=r"^adjacency graph is disconnected$"):
            kernel(2, [0, 0])

    # Every kernel takes exactly two arguments, by position only.
    for kernel, names, args in [
        (kernels.canonical_rows, ("n", "rows"), (1, [0])),
        (kernels.classify_flags, ("n", "rows"), (1, [0])),
        (kernels.min_image_nonsurjective, ("n", "rows"), (1, [0])),
        (kernels.lattice_rows, ("kind", "cells"), (4, [(0, 0)])),
    ]:
        kernel(*args)
        with pytest.raises(TypeError):
            kernel(args[0], **{names[1]: args[1]})
        with pytest.raises(TypeError):
            kernel(**dict(zip(names, args)))
        with pytest.raises(TypeError):
            kernel(*args, None)

    # Lattice coordinates lie in -2**62..2**62-1, where every difference is
    # exact in a signed 64-bit word.
    top, bottom = 2**62 - 1, -(2**62)
    assert kernels.lattice_rows(8, [(top, top), (top - 1, top - 1)]) == [0b10, 0b01]
    assert kernels.lattice_rows(4, [(bottom, 0), (bottom + 1, 0), (top, 0)]) == [0b10, 0b01, 0]
    assert kernels.lattice_rows(4, [(0, bottom), (0, top)]) == [0, 0]
    for bad in (2**62, 2**63, bottom - 1, -(2**63) - 1, 10**20):
        for cells in ([(0, 0), (bad, 0)], [(0, bad), (0, 0)]):
            with pytest.raises(ValueError, match=r"^cell coordinate outside -2\*\*62\.\.2\*\*62-1$"):
                kernels.lattice_rows(8, cells)


def test_core_compiles_without_warnings(compile_core, tmp_path):
    """The hand-written C stays clean under -Wall -Wextra, so a new warning
    fails here rather than passing unseen."""
    compile_core(tmp_path / "_core.so", "-Wall", "-Wextra", "-Werror")


def test_setup_builds_extension(core_twin, tmp_path):
    """``setup.py build_ext`` compiles the extension, which ``optional=True``
    would otherwise let fail quietly, and leaves the source tree as it was."""
    root = Path(__file__).resolve().parent.parent

    def leftovers():
        return {
            p for pattern in ("build", "*.egg-info", "src/*.egg-info", "src/**/*.so")
            for p in root.glob(pattern)
        }

    before = leftovers()
    lib = tmp_path / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib),
         "--build-temp", str(tmp_path / "temp")],
        cwd=root, check=True, capture_output=True, text=True,
    )
    assert leftovers() == before
    built = list((lib / "digitop").glob("_core*"))
    assert len(built) == 1, f"setup.py built no extension:\n{proc.stderr[-2000:]}"
    assert load_core(built[0]).canonical_rows(3, [0b010, 0b101, 0b010]) == _pure.canonical_rows(3, [2, 5, 2])


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
    for value in ("fortran", "c", "pure"):
        proc = _backend_in_subprocess(value)
        assert proc.returncode != 0, value
        assert "unknown DIGITOP_BACKEND" in proc.stderr, value


@needs_core
def test_forced_cython_backend():
    proc = _backend_in_subprocess("cython")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "cython"
