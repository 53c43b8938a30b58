"""Catalog CSVs, deterministic builds, report tables, and the scanner."""

import concurrent.futures
import csv
import dataclasses
import os
import re
import subprocess
import sys

import pytest

from digitop import _kernels, catalog, enumerator
from digitop.catalog import (
    CSV_HEADER,
    CatalogEntry,
    ReportRow,
    build_catalog,
    build_report,
    catalog_path,
    read_catalog_csv,
    scan_conjectures,
    worker_count,
    write_catalog_csv,
)
from digitop.enumerator import CellSet
from digitop.image import LatticeImage, canonical_form, lattice_to_image
from digitop.lattice import cycle_image

from .conftest import subprocess_env


def _abstract_entry(code, n, **flags):
    values = dict(
        family="abstract",
        n=n,
        canonical=code,
        reducible=True,
        pointed_reducible=True,
        rigid=False,
        planar=True,
        is_cycle=False,
        witness=None,
    )
    values.update(flags)
    return CatalogEntry(**values)


def _adj4_entry(code, n, cells, **flags):
    values = dict(
        family="adj4",
        n=n,
        canonical=code,
        reducible=True,
        pointed_reducible=True,
        rigid=False,
        planar=True,
        is_cycle=False,
        witness=CellSet.parse(cells),
    )
    values.update(flags)
    return CatalogEntry(**values)


# ---------------------------------------------------------------------------
# entry and row validation


def test_entry_validation():
    with pytest.raises(ValueError):
        _abstract_entry("@", 1, family="abstract9")
    with pytest.raises(ValueError):
        _abstract_entry("@", 1, reducible=False, pointed_reducible=True)
    with pytest.raises(ValueError):
        _abstract_entry("@", 1, reducible=True, rigid=True)
    with pytest.raises(ValueError):
        _abstract_entry("A_", 2, witness=CellSet.parse("0,0;1,0"))
    with pytest.raises(ValueError):
        _adj4_entry("A_", 2, "0,0;1,0", witness=None)
    entry = _abstract_entry("@", 1, reducible=False, pointed_reducible=False, rigid=True)
    assert entry.irreducible and entry.pointed_irreducible


def test_report_row_chain():
    ReportRow(n=5, images=21, pointed_irreducible=1, irreducible=1, rigid=0)
    with pytest.raises(ValueError):
        ReportRow(n=5, images=21, pointed_irreducible=1, irreducible=2, rigid=0)
    with pytest.raises(ValueError):
        ReportRow(n=5, images=0, pointed_irreducible=1, irreducible=1, rigid=1)


# ---------------------------------------------------------------------------
# CSV persistence


def test_csv_round_trip(tmp_path):
    entries = [
        _adj4_entry("A_", 2, "0,0;1,0"),
        _adj4_entry("Bw", 3, "0,0;1,0;2,0"),
    ]
    path = catalog_path(tmp_path, "adj4", 2)
    assert path.name == "adj4_n02.csv"
    write_catalog_csv(path, entries)
    assert read_catalog_csv(path) == entries

    bare = [_abstract_entry("@", 1, reducible=False, pointed_reducible=False, rigid=True)]
    path = catalog_path(tmp_path, "abstract", 1)
    write_catalog_csv(path, bare)
    assert read_catalog_csv(path) == bare


def test_csv_header_enforced(tmp_path):
    path = tmp_path / "abstract_n01.csv"
    path.write_text("family,n,code\nabstract,1,@\n")
    with pytest.raises(ValueError):
        read_catalog_csv(path)
    path.write_text(",".join(CSV_HEADER) + "\nabstract,1,@\n")
    with pytest.raises(ValueError):
        read_catalog_csv(path)


# ---------------------------------------------------------------------------
# builds


def test_build_catalog_argument_validation(tmp_path):
    with pytest.raises(ValueError):
        build_catalog(tmp_path, "abstractish", 3)
    with pytest.raises(ValueError):
        build_catalog(tmp_path, "abstract", 0)
    with pytest.raises(ValueError):
        build_catalog(tmp_path, "abstract", 3, shards=0)
    with pytest.raises(ValueError):
        build_catalog(tmp_path, "abstract", 3, shards=2, shard=2)
    with pytest.raises(ValueError):  # a one-way split has no slice to write
        build_catalog(tmp_path, "abstract", 3, shards=1, shard=0)
    for family in ("adj4", "adj8"):
        with pytest.raises(ValueError, match="cell count 15 outside 1..14"):
            build_catalog(tmp_path, family, 15)
    assert not list(tmp_path.rglob("*.csv"))


def test_abstract_build_levels_and_content(tmp_path):
    entries = build_catalog(tmp_path, "abstract", 5)
    by_level = {}
    for entry in entries:
        by_level.setdefault(entry.n, []).append(entry)
    assert {n: len(rows) for n, rows in by_level.items()} == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    for n in range(1, 6):
        assert catalog_path(tmp_path, "abstract", n).exists()

    c4 = canonical_form(cycle_image(4))
    row = next(e for e in by_level[4] if e.canonical == c4)
    assert row.reducible and row.pointed_reducible and not row.rigid
    assert row.planar and row.is_cycle

    c5 = canonical_form(cycle_image(5))
    row = next(e for e in by_level[5] if e.canonical == c5)
    assert row.irreducible and not row.rigid and row.planar and row.is_cycle

    point = by_level[1][0]
    assert point.rigid and point.irreducible and point.planar


def test_lattice_build_witness_invariant(tmp_path):
    entries = build_catalog(tmp_path, "adj4", 6)
    counts = {}
    for entry in entries:
        counts[entry.n] = counts.get(entry.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 3, 5: 4, 6: 10}
    for entry in entries:
        lattice = LatticeImage(4, frozenset(entry.witness.cells))
        assert canonical_form(lattice_to_image(lattice)) == entry.canonical


def test_rebuild_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    build_catalog(first, "abstract", 5)
    build_catalog(second, "abstract", 5)
    for n in range(1, 6):
        assert (
            catalog_path(first, "abstract", n).read_bytes()
            == catalog_path(second, "abstract", n).read_bytes()
        )


def test_resume_skips_existing_levels(tmp_path):
    build_catalog(tmp_path, "abstract", 4)
    reference = catalog_path(tmp_path, "abstract", 4).read_bytes()
    os.unlink(catalog_path(tmp_path, "abstract", 4))

    messages = []
    build_catalog(tmp_path, "abstract", 4, log=messages.append)
    kept = [m for m in messages if "kept existing" in m]
    assert len(kept) == 3
    assert catalog_path(tmp_path, "abstract", 4).read_bytes() == reference


def test_resume_of_complete_lattice_catalog_grows_nothing(tmp_path, monkeypatch):
    for family, n_max in (("adj4", 6), ("adj8", 5)):
        build_catalog(tmp_path, family, n_max)
    top = catalog_path(tmp_path, "adj8", 5)
    reference = top.read_bytes()

    def forbidden(*args, **kwargs):
        raise AssertionError("a resume of a complete catalog grew or labeled a level")

    with monkeypatch.context() as patch:
        for module, name in (
            (catalog, "grow_masks"),
            (catalog, "abstract_children"),
            (catalog, "mask_classes"),
            (enumerator, "grow_masks"),
            (_kernels, "canonical_rows"),
        ):
            patch.setattr(module, name, forbidden)
        assert len(build_catalog(tmp_path, "adj4", 6)) == 20
        assert len(build_catalog(tmp_path, "adj8", 5)) == 25

    os.unlink(top)
    build_catalog(tmp_path, "adj8", 5)
    assert top.read_bytes() == reference


def test_merge_with_every_slice_on_disk_grows_nothing(tmp_path, monkeypatch):
    plain_dir = tmp_path / "plain"
    shard_dir = tmp_path / "sharded"
    build_catalog(plain_dir, "adj8", 5)
    build_catalog(shard_dir, "adj8", 5, shards=3)
    top = catalog_path(shard_dir, "adj8", 5)
    os.unlink(top)

    def forbidden(*args, **kwargs):
        raise AssertionError("a merge of slices on disk grew or labeled a level")

    with monkeypatch.context() as patch:
        for module, name in (
            (catalog, "grow_masks"),
            (catalog, "abstract_children"),
            (catalog, "mask_classes"),
            (enumerator, "grow_masks"),
            (_kernels, "canonical_rows"),
        ):
            patch.setattr(module, name, forbidden)
        assert len(build_catalog(shard_dir, "adj8", 5, shards=3)) == 25
    assert top.read_bytes() == catalog_path(plain_dir, "adj8", 5).read_bytes()


def _overwrite_field(path, row, column, text):
    """Set one field of a catalog CSV's data row (1-based), bypassing the
    checks that ``write_catalog_csv`` gets from ``CatalogEntry``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][CSV_HEADER.index(column)] = text
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_resume_and_merge_check_their_files(tmp_path):
    build_catalog(tmp_path, "abstract", 4)
    path = catalog_path(tmp_path, "abstract", 4)
    good = read_catalog_csv(path)
    swapped = [good[1], good[0]] + good[2:]
    write_catalog_csv(path, swapped)
    with pytest.raises(ValueError, match="abstract_n04.csv"):
        build_catalog(tmp_path, "abstract", 4)
    relabeled = good[:2] + [dataclasses.replace(good[2], n=3)] + good[3:]
    write_catalog_csv(path, relabeled)
    with pytest.raises(ValueError, match="abstract_n04.csv"):
        build_catalog(tmp_path, "abstract", 4)

    write_catalog_csv(path, good)
    _overwrite_field(path, 2, "reducible", "7")
    with pytest.raises(ValueError, match=r"abstract_n04\.csv: row 2: flags must be 0 or 1"):
        build_catalog(tmp_path, "abstract", 4)
    build_catalog(tmp_path, "adj4", 4)
    _overwrite_field(catalog_path(tmp_path, "adj4", 4), 1, "witness_cells", "0,0;1,0")
    with pytest.raises(ValueError, match=r"adj4_n04\.csv: row 1: witness has 2 cells"):
        build_catalog(tmp_path, "adj4", 4)

    os.unlink(path)
    build_catalog(tmp_path, "abstract", 4, shards=2)
    os.unlink(path)
    slice_path = tmp_path / "shards" / "abstract_n04.shard1of2.csv"
    part = read_catalog_csv(slice_path)
    write_catalog_csv(slice_path, [dataclasses.replace(part[0], n=3)])
    with pytest.raises(ValueError, match="abstract_n04.shard1of2.csv"):
        build_catalog(tmp_path, "abstract", 4, shards=2)


def test_resume_refuses_a_level_with_no_rows(tmp_path):
    build_catalog(tmp_path, "abstract", 3)
    write_catalog_csv(catalog_path(tmp_path, "abstract", 3), [])
    with pytest.raises(ValueError, match=r"abstract_n03\.csv: no classes"):
        build_catalog(tmp_path, "abstract", 5)
    assert not catalog_path(tmp_path, "abstract", 4).exists()
    assert not catalog_path(tmp_path, "abstract", 5).exists()


def test_resume_and_merge_refuse_codes_on_other_point_counts(tmp_path):
    build_catalog(tmp_path, "abstract", 3)
    path = catalog_path(tmp_path, "abstract", 3)
    good = read_catalog_csv(path)
    # "C~" is the 4-point complete graph, and it still sorts after level 3.
    for code in ("C~", ""):
        write_catalog_csv(path, good)
        _overwrite_field(path, len(good), "canonical", code)
        with pytest.raises(ValueError, match=rf"abstract_n03\.csv: row {len(good)}: code '{code}'"):
            build_catalog(tmp_path, "abstract", 5)
        assert not catalog_path(tmp_path, "abstract", 4).exists()

    build_catalog(tmp_path, "adj4", 5, shards=2)
    os.unlink(catalog_path(tmp_path, "adj4", 5))
    slice_path = tmp_path / "shards" / "adj4_n05.shard0of2.csv"
    _overwrite_field(slice_path, 1, "canonical", "C~")
    with pytest.raises(ValueError, match=r"adj4_n05\.shard0of2\.csv: row 1: code 'C~'"):
        build_catalog(tmp_path, "adj4", 5, shards=2)


def test_sharded_build_matches_plain(tmp_path):
    # Each slice labels only the orbit minima among its own cell sets, so
    # slices hold fewer classes; the merge must still equal the plain build.
    for family, top, shards in (("adj8", 5, 3), ("adj4", 8, 4)):
        plain_dir = tmp_path / f"plain_{family}"
        shard_dir = tmp_path / f"sharded_{family}"
        build_catalog(plain_dir, family, top)

        for index in range(shards):
            result = build_catalog(shard_dir, family, top, shards=shards, shard=index)
            assert result == []
            slice_name = f"{family}_n{top:02d}.shard{index}of{shards}.csv"
            assert (shard_dir / "shards" / slice_name).exists()
        assert not catalog_path(shard_dir, family, top).exists()

        build_catalog(shard_dir, family, top, shards=shards)
        for n in range(1, top + 1):
            assert (
                catalog_path(shard_dir, family, n).read_bytes()
                == catalog_path(plain_dir, family, n).read_bytes()
            )


def test_merge_run_without_preexisting_slices(tmp_path):
    # Each slice generates from its own parents only, so the merged level is
    # complete only if every class has a generating child in some slice.
    for n, shards in ((5, 4), (7, 3)):
        plain_dir = tmp_path / f"plain{n}"
        shard_dir = tmp_path / f"sharded{n}"
        build_catalog(plain_dir, "abstract", n)
        build_catalog(shard_dir, "abstract", n, shards=shards)
        assert (
            catalog_path(shard_dir, "abstract", n).read_bytes()
            == catalog_path(plain_dir, "abstract", n).read_bytes()
        )


# ---------------------------------------------------------------------------
# reports


def test_build_report_counts(tmp_path):
    build_catalog(tmp_path, "abstract", 5)
    table = build_report(tmp_path, "abstract")
    assert table.family == "abstract"
    assert table.warnings == ()
    got = [(r.n, r.images, r.pointed_irreducible, r.irreducible, r.rigid) for r in table.rows]
    assert got == [
        (1, 1, 1, 1, 1),
        (2, 1, 0, 0, 0),
        (3, 2, 0, 0, 0),
        (4, 6, 0, 0, 0),
        (5, 21, 1, 1, 0),
    ]


def test_report_warns_on_gaps(tmp_path):
    build_catalog(tmp_path, "abstract", 4)
    os.unlink(catalog_path(tmp_path, "abstract", 2))
    table = build_report(tmp_path, "abstract")
    assert [r.n for r in table.rows] == [1, 3, 4]
    assert table.warnings == ("missing catalog file for abstract n=2",)


def test_report_reads_only_level_file_names(tmp_path):
    # A file that catalog_path would not name is no level: neither a second
    # n = 3 nor an n = 7 whose file is abstract_n07.csv.
    build_catalog(tmp_path, "abstract", 4)
    level3 = catalog_path(tmp_path, "abstract", 3)
    (tmp_path / "abstract_n3.csv").write_bytes(level3.read_bytes())
    (tmp_path / "abstract_n007.csv").write_bytes(level3.read_bytes())
    table = build_report(tmp_path, "abstract")
    assert [r.n for r in table.rows] == [1, 2, 3, 4]
    assert table.warnings == ()
    assert catalog._family_levels(tmp_path, "abstract") == [1, 2, 3, 4]


def _corrupt_level(directory, how):
    """Damage one level of a built abstract n <= 5 catalog so that a report
    read without checks would still print a row for it; returns its name."""
    paths = {n: catalog_path(directory, "abstract", n) for n in (3, 4, 5)}
    if how == "copied":  # level 4's rows under level 5's name
        paths[5].write_bytes(paths[4].read_bytes())
        return paths[5].name
    if how == "empty":
        write_catalog_csv(paths[3], [])
        return paths[3].name
    good = read_catalog_csv(paths[4])
    write_catalog_csv(paths[4], [good[1], good[0]] + good[2:])
    return paths[4].name


@pytest.mark.parametrize("how", ["copied", "empty", "swapped"])
def test_report_and_scan_check_their_levels(tmp_path, how):
    build_catalog(tmp_path, "abstract", 5)
    name = _corrupt_level(tmp_path, how)
    with pytest.raises(ValueError, match=re.escape(name)):
        build_report(tmp_path, "abstract")
    with pytest.raises(ValueError, match=re.escape(name)):
        scan_conjectures(tmp_path)


def test_report_errors(tmp_path):
    with pytest.raises(ValueError):
        build_report(tmp_path, "nonsense")
    with pytest.raises(FileNotFoundError):
        build_report(tmp_path, "adj4")


def test_render_report_formats(tmp_path):
    build_catalog(tmp_path, "abstract", 4)
    csv_text = build_report(tmp_path, "abstract").render("csv")
    assert csv_text.splitlines() == [
        "n,1,2,3,4",
        "images,1,1,2,6",
        "pointed_irreducible,1,0,0,0",
        "irreducible,1,0,0,0",
        "rigid,1,0,0,0",
    ]
    md_text = build_report(tmp_path, "abstract").render("md")
    lines = md_text.splitlines()
    assert lines[0] == "| n | 1 | 2 | 3 | 4 |"
    assert lines[1].startswith("|---")
    assert lines[2] == "| Images | 1 | 1 | 2 | 6 |"
    with pytest.raises(ValueError):
        build_report(tmp_path, "abstract").render("html")


# ---------------------------------------------------------------------------
# conjecture scan


def test_scan_on_real_catalogs(tmp_path):
    build_catalog(tmp_path, "abstract", 6)
    build_catalog(tmp_path, "adj4", 6)
    build_catalog(tmp_path, "adj8", 5)
    report = scan_conjectures(tmp_path)
    assert report.consistent
    nontrivial = [e for e in report.findings if e.n > 1]
    assert {(e.family, e.n) for e in nontrivial} == {("abstract", 5), ("abstract", 6)}
    assert all(e.is_cycle for e in nontrivial)


def test_scan_flags_planar_abstract_noncycle(tmp_path):
    bad = _abstract_entry(
        "Fake", 7, reducible=False, pointed_reducible=False, rigid=False,
        planar=True, is_cycle=False,
    )
    write_catalog_csv(catalog_path(tmp_path, "abstract", 7), [bad])
    report = scan_conjectures(tmp_path)
    assert not report.consistent
    assert "planar nonrigid irreducible non-cycle" in report.counterexamples[0]


def test_scan_flags_lattice_noncycle_irreducible(tmp_path):
    bad = _adj4_entry(
        "Bfake", 3, "0,0;1,0;2,0",
        reducible=False, pointed_reducible=False, rigid=False, is_cycle=False,
    )
    write_catalog_csv(catalog_path(tmp_path, "adj4", 3), [bad])
    report = scan_conjectures(tmp_path)
    assert not report.consistent
    assert "nonrigid irreducible non-cycle" in report.counterexamples[0]


def test_scan_flags_long_cycle_not_irreducible(tmp_path):
    bad = _adj4_entry(
        "Gfake", 8, "0,0;1,0;2,0;0,1;2,1;0,2;1,2;2,2",
        reducible=True, pointed_reducible=True, rigid=False, is_cycle=True,
    )
    write_catalog_csv(catalog_path(tmp_path, "adj4", 8), [bad])
    report = scan_conjectures(tmp_path)
    assert not report.consistent
    assert "not nonrigid irreducible" in report.counterexamples[0]


def test_scan_of_empty_directory_raises(tmp_path):
    """A directory with no level file is no catalog: the scan refuses it, as
    a report does, rather than call it consistent."""
    (tmp_path / "abstract_n3.csv").write_text("")  # not a level file name
    with pytest.raises(FileNotFoundError, match=f"no catalog files in {re.escape(str(tmp_path))}$"):
        scan_conjectures(tmp_path)


def test_scan_of_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="no catalog directory"):
        scan_conjectures(tmp_path / "void")


# ---------------------------------------------------------------------------
# worker configuration


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("DIGITOP_THREADS", "3")
    assert worker_count() == 3
    for bad in ("0", "-2", "abc", "2.5"):
        monkeypatch.setenv("DIGITOP_THREADS", bad)
        with pytest.raises(ValueError, match=f"DIGITOP_THREADS must be a positive integer, got '{bad}'"):
            worker_count()
    monkeypatch.delenv("DIGITOP_THREADS")
    assert worker_count() >= 1


def test_serial_build_with_one_thread(monkeypatch, tmp_path):
    monkeypatch.setenv("DIGITOP_THREADS", "1")
    entries = build_catalog(tmp_path, "abstract", 4)
    assert len(entries) == 10


_WORKER_LEVELS = (("abstract", 7), ("adj4", 8), ("adj8", 6))


def _catalog_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def test_builds_are_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            assert max_workers <= 3
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    built = {}
    for threads in ("1", "3"):
        monkeypatch.setenv("DIGITOP_THREADS", threads)
        for family, n_max in _WORKER_LEVELS:
            build_catalog(tmp_path / threads, family, n_max)
        built[threads] = _catalog_bytes(tmp_path / threads)
    assert pools == [3, 3, 3]  # one pool per build, none at one worker
    assert len(built["1"]) == 21 and built["3"] == built["1"]

    # A merge with no slice on disk computes its three slices in the pool.
    monkeypatch.setenv("DIGITOP_THREADS", "2")
    for family, n_max in _WORKER_LEVELS:
        build_catalog(tmp_path / "merged", family, n_max, shards=3)
    assert pools == [3, 3, 3, 2, 2, 2]
    assert _catalog_bytes(tmp_path / "merged") == built["1"]
    assert len(list((tmp_path / "merged" / "shards").glob("*.csv"))) == 9


def test_import_loads_no_worker_pool_machinery():
    """``import digitop`` leaves the pool modules to the first build that
    starts a pool."""
    probe = (
        "import sys, digitop\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_process_starts_when_none_is_needed(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("DIGITOP_THREADS", "1")
    assert len(build_catalog(tmp_path, "abstract", 5)) == 31
    assert len(build_catalog(tmp_path, "adj4", 6, shards=3)) == 20

    monkeypatch.setenv("DIGITOP_THREADS", "2")
    assert len(build_catalog(tmp_path, "abstract", 5)) == 31
    os.unlink(catalog_path(tmp_path, "adj4", 6))
    assert len(build_catalog(tmp_path, "adj4", 6, shards=3)) == 20
