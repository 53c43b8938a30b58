"""Catalog CSVs, deterministic builds, report tables, and the scanner."""

import os

import pytest

from digitop.catalog import (
    CSV_HEADER,
    CatalogEntry,
    ReportRow,
    build_catalog,
    build_report,
    catalog_path,
    read_catalog_csv,
    render_report,
    scan_conjectures,
    worker_count,
    write_catalog_csv,
)
from digitop.enumerator import CellSet
from digitop.image import LatticeImage, canonical_form, lattice_to_image
from digitop.lattice import cycle_image


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


def test_abstract_build_levels_and_content(tmp_path):
    entries = build_catalog(tmp_path, "abstract", 5)
    by_level = {}
    for entry in entries:
        by_level.setdefault(entry.n, []).append(entry)
    assert {n: len(rows) for n, rows in by_level.items()} == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    for n in range(1, 6):
        assert catalog_path(tmp_path, "abstract", n).exists()

    c4 = canonical_form(cycle_image(4)).code
    row = next(e for e in by_level[4] if e.canonical == c4)
    assert row.reducible and row.pointed_reducible and not row.rigid
    assert row.planar and row.is_cycle

    c5 = canonical_form(cycle_image(5)).code
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
        assert canonical_form(lattice_to_image(lattice)).code == entry.canonical


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


def test_sharded_build_matches_plain(tmp_path):
    plain_dir = tmp_path / "plain"
    shard_dir = tmp_path / "sharded"
    build_catalog(plain_dir, "adj8", 5)

    for index in range(3):
        result = build_catalog(shard_dir, "adj8", 5, shards=3, shard=index)
        assert result == []
        stem = f"adj8_n05.shard{index}of3"
        assert (shard_dir / "shards" / f"{stem}.g6").exists()
        assert (shard_dir / "shards" / f"{stem}.cells").exists()
    assert not catalog_path(shard_dir, "adj8", 5).exists()

    build_catalog(shard_dir, "adj8", 5, shards=3)
    for n in range(1, 6):
        assert (
            catalog_path(shard_dir, "adj8", n).read_bytes()
            == catalog_path(plain_dir, "adj8", n).read_bytes()
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


def test_report_errors(tmp_path):
    with pytest.raises(ValueError):
        build_report(tmp_path, "nonsense")
    with pytest.raises(FileNotFoundError):
        build_report(tmp_path, "adj4")


def test_render_report_formats(tmp_path):
    build_catalog(tmp_path, "abstract", 4)
    csv_text = render_report(tmp_path, "abstract", "csv")
    assert csv_text.splitlines() == [
        "n,1,2,3,4",
        "images,1,1,2,6",
        "pointed_irreducible,1,0,0,0",
        "irreducible,1,0,0,0",
        "rigid,1,0,0,0",
    ]
    md_text = render_report(tmp_path, "abstract", "md")
    lines = md_text.splitlines()
    assert lines[0] == "| n | 1 | 2 | 3 | 4 |"
    assert lines[1].startswith("|---")
    assert lines[2] == "| Images | 1 | 1 | 2 | 6 |"
    with pytest.raises(ValueError):
        render_report(tmp_path, "abstract", "html")


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
        "Fake", 3, "0,0;1,0;2,0",
        reducible=False, pointed_reducible=False, rigid=False, is_cycle=False,
    )
    write_catalog_csv(catalog_path(tmp_path, "adj4", 3), [bad])
    report = scan_conjectures(tmp_path)
    assert not report.consistent
    assert "nonrigid irreducible non-cycle" in report.counterexamples[0]


def test_scan_flags_long_cycle_not_irreducible(tmp_path):
    bad = _adj4_entry(
        "Fake", 8, "0,0;1,0;2,0;0,1;2,1;0,2;1,2;2,2",
        reducible=True, pointed_reducible=True, rigid=False, is_cycle=True,
    )
    write_catalog_csv(catalog_path(tmp_path, "adj4", 8), [bad])
    report = scan_conjectures(tmp_path)
    assert not report.consistent
    assert "not nonrigid irreducible" in report.counterexamples[0]


def test_scan_of_empty_directory_is_consistent(tmp_path):
    report = scan_conjectures(tmp_path)
    assert report.consistent and report.findings == ()


# ---------------------------------------------------------------------------
# worker configuration


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("DIGITOP_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DIGITOP_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("DIGITOP_THREADS")
    assert worker_count() >= 1


def test_serial_build_with_one_thread(monkeypatch, tmp_path):
    monkeypatch.setenv("DIGITOP_THREADS", "1")
    entries = build_catalog(tmp_path, "abstract", 4)
    assert len(entries) == 10
