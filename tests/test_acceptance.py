"""Acceptance checks: the ten gating properties of the full catalogs.

One session-scoped build produces the acceptance-range catalogs (abstract
to n = 9, 4-adjacency to n = 12, 8-adjacency to n = 9); each test then
verifies one numbered property end to end and prints a single pass/fail
line (visible with ``pytest -s``).
"""

import itertools
from contextlib import contextmanager

import pytest

from digitop.catalog import (
    build_catalog,
    build_report,
    catalog_path,
    read_catalog_csv,
    scan_conjectures,
)
from digitop.homotopy import classify, homotopy_equivalent, one_step_identity_maps
from digitop.image import (
    DigitalImage,
    LatticeImage,
    are_isomorphic,
    canonical_form,
    graph6_decode,
    is_planar,
    lattice_to_image,
)
from digitop.lattice import builtin_fixtures, cycle_image, embed_4_to_8

from .conftest import all_labeled_connected
from .test_enumerator import _box_connected_sets, _code_of_cells
from .test_homotopy import _closed_neighborhoods, _image_classes


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {text}")
        raise
    print(f"[PASS] criterion {number:2d}: {text}")


@pytest.fixture(scope="session")
def catalog(tmp_path_factory):
    directory = tmp_path_factory.mktemp("acceptance-catalog")
    build_catalog(directory, "abstract", 9)
    build_catalog(directory, "adj4", 12)
    build_catalog(directory, "adj8", 9)
    return directory


def _counts(catalog_dir, family):
    table = build_report(catalog_dir, family)
    assert table.warnings == ()
    return {
        row.n: (row.images, row.pointed_irreducible, row.irreducible, row.rigid)
        for row in table.rows
    }


def _level(catalog_dir, family, n):
    return read_catalog_csv(catalog_path(catalog_dir, family, n))


def test_criterion_01_abstract_tables(catalog):
    with criterion(1, "abstract classification tables for n = 1..8 (and extended n = 9)"):
        got = _counts(catalog, "abstract")
        images = (1, 1, 2, 6, 21, 112, 853, 11117)
        pointed = (1, 0, 0, 0, 1, 2, 9, 68)
        irreducible = (1, 0, 0, 0, 1, 1, 3, 28)
        rigid = (1, 0, 0, 0, 0, 0, 2, 26)
        for n in range(1, 9):
            expected = (images[n - 1], pointed[n - 1], irreducible[n - 1], rigid[n - 1])
            assert got[n] == expected, f"abstract n={n}: {got[n]} != {expected}"
        assert got[9] == (261080, 1110, 547, 544), f"abstract n=9: {got[9]}"


def test_criterion_02_adj4_tables(catalog):
    with criterion(2, "4-adjacency classification tables for n = 1..12"):
        got = _counts(catalog, "adj4")
        images = (1, 1, 1, 3, 4, 10, 19, 51, 112, 300, 746, 2042)
        for n in range(1, 13):
            pointed = irreducible = 1 if n in (1, 8, 10, 12) else 0
            rigid = 1 if n == 1 else 0
            expected = (images[n - 1], pointed, irreducible, rigid)
            assert got[n] == expected, f"adj4 n={n}: {got[n]} != {expected}"


def test_criterion_03_adj8_tables(catalog):
    with criterion(3, "8-adjacency classification tables for n = 1..9"):
        got = _counts(catalog, "adj8")
        images = (1, 1, 2, 6, 15, 51, 173, 681, 2682)
        for n in range(1, 10):
            pointed = irreducible = 1 if n in (1, 6, 7, 8, 9) else 0
            rigid = 1 if n == 1 else 0
            expected = (images[n - 1], pointed, irreducible, rigid)
            assert got[n] == expected, f"adj8 n={n}: {got[n]} != {expected}"


def test_criterion_04_irreducible_noncycle_fixtures(catalog):
    with criterion(4, "the three named nonrigid irreducible non-cycles, by canonical form"):
        sizes = {"GrDKPK": 8, "HhciKeX": 9, "HzSW[Mb": 9}
        canon = {}
        for code, n in sizes.items():
            image = graph6_decode(code)
            assert image.n == n, f"{code}: n={image.n}, expected {n}"
            verdict = classify(image)
            assert verdict.irreducible and not verdict.rigid, f"{code}: {verdict.label}"
            assert not is_planar(image), f"{code} should be nonplanar"
            canon[code] = canonical_form(image)

        def noncycle_set(n):
            return {
                e.canonical
                for e in _level(catalog, "abstract", n)
                if e.irreducible and not e.rigid and not e.is_cycle
            }

        assert noncycle_set(8) == {canon["GrDKPK"]}
        assert noncycle_set(9) == {canon["HhciKeX"], canon["HzSW[Mb"]}


def test_criterion_05_reducible_pointed_irreducible_witnesses():
    with criterion(5, "the two lattice witnesses are reducible yet pointed irreducible"):
        fixtures = builtin_fixtures()
        for name, kind, n in (("fig2a", 4, 13), ("fig2b", 8, 11)):
            lattice = fixtures[name]
            assert lattice.kind == kind and len(lattice.points) == n
            verdict = classify(lattice_to_image(lattice))
            assert verdict.reducible, f"{name} must be reducible"
            assert not verdict.pointed_reducible, f"{name} must be pointed irreducible"


def test_criterion_06_embedding(catalog):
    with criterion(6, "diagonal embedding preserves canonical form; class counts dominate"):
        for n in range(1, 11):
            for entry in _level(catalog, "adj4", n):
                lattice = LatticeImage(4, frozenset(entry.witness.cells))
                embedded = lattice_to_image(embed_4_to_8(lattice))
                assert canonical_form(embedded) == entry.canonical, (
                    f"adj4 n={n} {entry.canonical}: embedding changed the class"
                )
        adj4 = _counts(catalog, "adj4")
        adj8 = _counts(catalog, "adj8")
        for n in range(1, 10):
            assert adj8[n][0] >= adj4[n][0], f"n={n}: adj8 count below adj4"
            if n >= 3:
                assert adj8[n][0] > adj4[n][0], f"n={n}: domination must be strict"


def test_criterion_07_oracle_equivalence(catalog):
    with criterion(7, "brute-force oracles: labeled graphs, box subsets, unpruned map filter"):
        for n in range(1, 7):
            brute = {
                canonical_form(DigitalImage(n, rows))
                for rows in all_labeled_connected(n)
            }
            got = {e.canonical for e in _level(catalog, "abstract", n)}
            assert got == brute, f"abstract n={n} differs from the labeled oracle"

        for kind in (4, 8):
            for n in range(1, 6):
                brute = {
                    _code_of_cells(kind, cells)
                    for cells in _box_connected_sets(kind, n)
                }
                got = {e.canonical for e in _level(catalog, f"adj{kind}", n)}
                assert got == brute, f"adj{kind} n={n} differs from the box oracle"

        for n in range(1, 7):
            for image in _image_classes(n):
                closed = _closed_neighborhoods(image)
                brute_maps = {
                    table
                    for table in itertools.product(*closed)
                    if all(
                        table[a] == table[b] or (image.rows[table[a]] >> table[b]) & 1
                        for a, b in image.edges()
                    )
                }
                stream = {f.table for f in one_step_identity_maps(image)}
                assert stream == brute_maps, f"map stream differs on n={n}"


def test_criterion_08_homotopy_equivalence(catalog):
    with criterion(8, "homotopy equivalence: cycle facts and core-versus-isomorphism"):
        point = DigitalImage(1, (0,))
        assert homotopy_equivalent(cycle_image(4), point)
        assert not homotopy_equivalent(cycle_image(5), cycle_image(8))

        irreducible = [
            graph6_decode(e.canonical)
            for n in range(1, 9)
            for e in _level(catalog, "abstract", n)
            if e.irreducible
        ]
        assert len(irreducible) == 34
        for a, b in itertools.combinations_with_replacement(irreducible, 2):
            assert homotopy_equivalent(a, b) == are_isomorphic(a, b)


def test_criterion_09_conjecture_scan(catalog):
    with criterion(9, "conjecture scan over the full catalogs is consistent"):
        report = scan_conjectures(catalog)
        assert report.counterexamples == ()
        assert report.consistent
        assert report.findings, "the scan should list the nonrigid irreducible entries"


def test_criterion_10_determinism(catalog, tmp_path_factory):
    with criterion(10, "plain and 4-shard rebuilds are byte-identical"):
        plain = tmp_path_factory.mktemp("rebuild-plain")
        sharded = tmp_path_factory.mktemp("rebuild-sharded")
        build_catalog(plain, "abstract", 8)
        build_catalog(sharded, "abstract", 8, shards=4)
        for n in range(1, 9):
            reference = catalog_path(catalog, "abstract", n).read_bytes()
            assert catalog_path(plain, "abstract", n).read_bytes() == reference, (
                f"plain rebuild differs at n={n}"
            )
            assert catalog_path(sharded, "abstract", n).read_bytes() == reference, (
                f"sharded rebuild differs at n={n}"
            )
