"""Catalog persistence, report tables, and the conjecture scanner.

A catalog is a directory of CSV files, one per (family, n), each row one
isomorphism class with its classification flags, planarity, cycle flag, and
(for the lattice families) a witness cell set.  Files are written atomically
and sorted by canonical code, so runs with any shard count produce
byte-identical output.  An existing file is checked (its rows parse and name
its family and n, its codes are on n points and strictly ascend, and a level
has at least one row) and kept, so builds resume per n; reports and the
conjecture scan read every level through the same check, and a file that
fails it raises an error naming it.  Abstract levels grow from the level
below; lattice levels stand alone.  A level is built as k slices, each grown
and classified on its own (in one worker pool per build) and folded by least
witness: slice i of k grows from every k-th parent code, or keeps every k-th
cell set in search order, starting at the i-th.  A shard run writes one
slice under ``shards/``; the merge folds them without classifying again.
"""

from __future__ import annotations

import csv
import itertools
import os
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import _kernels
from .enumerator import (
    _ONE_POINT_CODE,
    FAMILIES,
    MAX_CELLS,
    CellSet,
    abstract_children,
    grow_masks,
    least_witness_items,
    mask_classes,
)
from .image import graph6_decode, is_planar

CSV_HEADER = (
    "family",
    "n",
    "canonical",
    "reducible",
    "pointed_reducible",
    "rigid",
    "planar",
    "is_cycle",
    "witness_cells",
)
_FLAGS = {"0": False, "1": True}


@dataclass(frozen=True)
class CatalogEntry:
    """One classified isomorphism class as stored in a catalog CSV row."""

    family: str
    n: int
    canonical: str
    reducible: bool
    pointed_reducible: bool
    rigid: bool
    planar: bool
    is_cycle: bool
    witness: CellSet | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.pointed_reducible and not self.reducible:
            raise ValueError("pointed reducibility implies reducibility")
        if self.rigid and self.reducible:
            raise ValueError("a rigid image cannot be reducible")
        if (self.witness is None) != (self.family == "abstract"):
            raise ValueError("lattice entries carry a witness; abstract entries do not")
        if self.witness is not None and len(self.witness.cells) != self.n:
            raise ValueError(f"witness has {len(self.witness.cells)} cells, expected {self.n}")

    @property
    def irreducible(self) -> bool:
        return not self.reducible

    @property
    def pointed_irreducible(self) -> bool:
        return not self.pointed_reducible


@dataclass(frozen=True)
class ReportRow:
    n: int
    images: int
    pointed_irreducible: int
    irreducible: int
    rigid: int

    def __post_init__(self):
        if not self.images >= self.pointed_irreducible >= self.irreducible >= self.rigid:
            raise ValueError(f"count chain violated at n={self.n}")


@dataclass(frozen=True)
class ReportTable:
    """Per-family count table: images / pointed irreducible / irreducible / rigid."""

    family: str
    rows: tuple[ReportRow, ...]
    warnings: tuple[str, ...] = ()

    def render(self, fmt: str = "csv") -> str:
        """The four-row count table across all its n, as CSV or markdown."""
        ns = [row.n for row in self.rows]
        if fmt == "csv":
            lines = ["n," + ",".join(str(n) for n in ns)]
            for attr, _ in _REPORT_ROWS:
                values = ",".join(str(getattr(row, attr)) for row in self.rows)
                lines.append(f"{attr},{values}")
            return "\n".join(lines) + "\n"
        if fmt == "md":
            header = "| n | " + " | ".join(str(n) for n in ns) + " |"
            rule = "|---" * (len(ns) + 1) + "|"
            lines = [header, rule]
            for attr, label in _REPORT_ROWS:
                values = " | ".join(str(getattr(row, attr)) for row in self.rows)
                lines.append(f"| {label} | {values} |")
            return "\n".join(lines) + "\n"
        raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# CSV persistence


def catalog_path(directory: Path | str, family: str, n: int) -> Path:
    return Path(directory) / f"{family}_n{n:02d}.csv"


def write_catalog_csv(path: Path, entries: Iterable[CatalogEntry]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for entry in entries:
                writer.writerow(
                    (
                        entry.family,
                        entry.n,
                        entry.canonical,
                        int(entry.reducible),
                        int(entry.pointed_reducible),
                        int(entry.rigid),
                        int(entry.planar),
                        int(entry.is_cycle),
                        "" if entry.witness is None else entry.witness.as_string(),
                    )
                )
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_catalog_csv(path: Path) -> list[CatalogEntry]:
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected catalog header {header!r}")
        entries = []
        for number, row in enumerate(reader, start=1):
            try:
                family, n, code, red, pointed, rigid, planar, cycle, cells = row
                entries.append(
                    CatalogEntry(
                        family,
                        int(n),
                        code,
                        _FLAGS[red], _FLAGS[pointed], _FLAGS[rigid], _FLAGS[planar], _FLAGS[cycle],
                        CellSet.parse(cells) if cells else None,
                    )
                )
            except KeyError as exc:
                raise ValueError(f"{path}: row {number}: flags must be 0 or 1, got {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}: row {number}: {exc}") from None
    return entries


# ---------------------------------------------------------------------------
# Classification of code lists


def worker_count() -> int:
    """Worker processes for a build, ``DIGITOP_THREADS`` (default: CPU count);
    also the number of slices a plain build splits each level into."""
    text = os.environ.get("DIGITOP_THREADS")
    try:
        count = int(text) if text else os.cpu_count() or 1
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"DIGITOP_THREADS must be a positive integer, got {text!r}")
    return count


def _classify_codes(codes: list[str]) -> list[tuple[bool, bool, bool, bool, bool]]:
    """The flags of each code, in one process: a build runs whole slices in
    parallel instead.  Kept under this name as the seam where a level's
    classification can be timed or replaced on its own."""
    flags = []
    for image in map(graph6_decode, codes):
        cycle = all(image.degree(i) == 2 for i in range(image.n))
        flags.append((*_kernels.classify_flags(image.n, image.rows), is_planar(image), cycle))
    return flags


# ---------------------------------------------------------------------------
# Catalog builds


_KINDS = {"adj4": 4, "adj8": 8}


def _read_level(path: Path, family: str, n: int, *, is_slice: bool = False) -> list[CatalogEntry]:
    """A level or slice CSV, checked: every row is (family, n), its code
    encodes n points (graph6's first byte is n + 63), the codes strictly
    ascend, and a level (a slice may be empty) has at least one row.  The
    one way resume, merge, reports and the scan read a catalog file."""
    entries = read_catalog_csv(path)
    if not (entries or is_slice):
        raise ValueError(f"{path}: no classes; every level has at least one")
    size = chr(n + 63)
    for row, entry in enumerate(entries, start=1):
        if (entry.family, entry.n) != (family, n):
            raise ValueError(
                f"{path}: row {row} is {entry.family} n={entry.n}, expected {family} n={n}"
            )
        if entry.canonical[:1] != size:
            raise ValueError(f"{path}: row {row}: code {entry.canonical!r} is not on {n} points")
        if row > 1 and entry.canonical <= entries[row - 2].canonical:
            raise ValueError(f"{path}: codes do not strictly ascend at row {row}")
    return entries


def _slice(family: str, n: int, below: list[str], k: int, index: int) -> list[CatalogEntry]:
    """Slice ``index`` of k of level n, grown and classified: what a shard
    run writes.  Module-level so that a worker process can run it."""
    if family == "abstract":
        codes = abstract_children(below[index::k]) if n > 1 else [_ONE_POINT_CODE][index::k]
        items = [(code, None) for code in codes]
    else:
        items = mask_classes(_KINDS[family], grow_masks(_KINDS[family], n, k, index))
    flags = _classify_codes([code for code, _ in items])
    return [
        CatalogEntry(family, n, code, *flag, None if cells is None else CellSet(cells))
        for (code, cells), flag in zip(items, flags)
    ]


def _merged_entries(parts: Iterable[list[CatalogEntry]]) -> list[CatalogEntry]:
    """The classified slices folded into one level: least witness per code."""
    items = least_witness_items(
        (entry.canonical, entry.witness, entry) for entry in itertools.chain.from_iterable(parts)
    )
    return [entry for _, _, entry in items]


def build_catalog(
    out_dir: Path | str,
    family: str,
    n_max: int,
    *,
    shards: int = 1,
    shard: int | None = None,
    log: Callable[[str], None] | None = None,
) -> list[CatalogEntry]:
    """Enumerate, classify, and persist levels 1..n_max of one family.

    Plain mode (shard = None, shards = 1) writes one CSV per n, keeping
    levels whose file already exists; each level is ``worker_count()``
    slices held in memory.  A shard run (shard = i) classifies only its
    slice of the final level, writes it as a catalog CSV under ``shards/``,
    and returns no entries; missing abstract levels below it are grown in
    memory, and lattice levels need no lower level.  A merge run (shards =
    k, shard = None) builds any missing slices itself and folds them into
    the same CSVs a plain run would write, without classifying again.  The
    worker pool starts only when two or more slices are due at once.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if family != "abstract" and n_max > MAX_CELLS:
        raise ValueError(f"cell count {n_max} outside 1..{MAX_CELLS}")
    if shards < 1:
        raise ValueError("shard count must be positive")
    if shard is not None and not (shards > 1 and 0 <= shard < shards):
        raise ValueError(f"shard {shard} of {shards}: needs shards > 1 and 0 <= shard < shards")
    out_dir = Path(out_dir)
    say = log if log is not None else (lambda message: None)

    collected: list[CatalogEntry] = []
    below: list[str] = []  # level n - 1's class codes, which abstract levels grow from
    first = 1 if family == "abstract" or shard is None else n_max
    with ExitStack() as stack:
        pool = None
        for n in range(first, n_max + 1):
            path = catalog_path(out_dir, family, n)
            if path.exists() and (shard is None or n < n_max):
                entries = _read_level(path, family, n)
                if shard is None:
                    say(f"{family} n={n}: kept existing file ({len(entries)} classes)")
                    collected.extend(entries)
                below = [entry.canonical for entry in entries]
                continue
            if shard is not None and n < n_max:
                below = abstract_children(below) if n > 1 else [_ONE_POINT_CODE]
                continue

            sliced = n == n_max and shards > 1
            k = shards if sliced else worker_count()
            slice_paths = [
                out_dir / "shards" / f"{family}_n{n:02d}.shard{index}of{k}.csv"
                for index in range(k)
            ]
            wanted = range(k) if shard is None else (shard,)
            missing = [i for i in wanted if not (sliced and slice_paths[i].exists())]
            say(f"{family} n={n}: classifying {len(missing)} of {k} slices")
            compute = partial(_slice, family, n, below if family == "abstract" else [], k)
            run = map
            if len(missing) > 1 and worker_count() > 1:
                from concurrent.futures import ProcessPoolExecutor  # only where a pool starts

                pool = pool or stack.enter_context(ProcessPoolExecutor(max_workers=worker_count()))
                run = pool.map
            computed = dict(zip(missing, run(compute, missing)))
            if sliced:
                for index, part in computed.items():
                    write_catalog_csv(slice_paths[index], part)
                    say(f"{family} n={n}: wrote shard {index} of {k} ({len(part)} classes)")
            if shard is not None:
                return []

            for index in set(range(k)) - computed.keys():  # slices an earlier shard run wrote
                computed[index] = _read_level(slice_paths[index], family, n, is_slice=True)
            entries = _merged_entries(computed[index] for index in range(k))
            write_catalog_csv(path, entries)
            say(f"{family} n={n}: wrote {path} ({len(entries)} classes)")
            collected.extend(entries)
            below = [entry.canonical for entry in entries]
    return collected


# ---------------------------------------------------------------------------
# Reports


def _family_levels(catalog_dir: Path | str, family: str) -> list[int]:
    """The n of every level file, named exactly as :func:`catalog_path`
    names it (``abstract_n3.csv`` or ``abstract_n007.csv`` is no level)."""
    levels = []
    for path in Path(catalog_dir).glob(f"{family}_n*.csv"):
        stem = path.stem[len(family) + 2 :]
        if stem.isdecimal() and path.name == catalog_path(catalog_dir, family, int(stem)).name:
            levels.append(int(stem))
    return sorted(levels)


def _levels(catalog_dir: Path | str, family: str) -> Iterator[list[CatalogEntry]]:
    """Each level of one family in n order, read and checked as a resume
    reads it: a level is never empty, and every entry in it has its n."""
    for n in _family_levels(catalog_dir, family):
        yield _read_level(catalog_path(catalog_dir, family, n), family, n)


def build_report(catalog_dir: Path | str, family: str) -> ReportTable:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rows = [
        ReportRow(
            n=entries[0].n,
            images=len(entries),
            pointed_irreducible=sum(e.pointed_irreducible for e in entries),
            irreducible=sum(e.irreducible for e in entries),
            rigid=sum(e.rigid for e in entries),
        )
        for entries in _levels(catalog_dir, family)
    ]
    if not rows:
        raise FileNotFoundError(f"no catalog files for family {family!r} in {catalog_dir}")
    warnings = tuple(
        f"missing catalog file for {family} n={n}"
        for n in sorted(set(range(1, rows[-1].n + 1)) - {row.n for row in rows})
    )
    return ReportTable(family=family, rows=tuple(rows), warnings=warnings)


_REPORT_ROWS = (
    ("images", "Images"),
    ("pointed_irreducible", "Pointed irreducible"),
    ("irreducible", "Irreducible"),
    ("rigid", "Rigid"),
)


# ---------------------------------------------------------------------------
# Conjecture scan


@dataclass(frozen=True)
class ScanReport:
    """Every nonrigid irreducible entry, plus any conjecture counterexamples.

    Checked claims: every nonrigid irreducible abstract non-cycle is
    nonplanar; a lattice entry is nonrigid irreducible exactly when it is a
    cycle on more than four points.
    """

    findings: tuple[CatalogEntry, ...]
    counterexamples: tuple[str, ...] = field(default=())

    @property
    def consistent(self) -> bool:
        return not self.counterexamples


def scan_conjectures(catalog_dir: Path | str) -> ScanReport:
    directory = Path(catalog_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"no catalog directory {directory}")
    if not any(_family_levels(directory, family) for family in FAMILIES):
        raise FileNotFoundError(f"no catalog files in {directory}")
    findings: list[CatalogEntry] = []
    counterexamples: list[str] = []
    for family in FAMILIES:
        for entry in itertools.chain.from_iterable(_levels(directory, family)):
            nonrigid_irreducible = entry.irreducible and not entry.rigid
            if nonrigid_irreducible:
                findings.append(entry)
            if family == "abstract":
                if nonrigid_irreducible and not entry.is_cycle and entry.planar:
                    counterexamples.append(
                        f"planar nonrigid irreducible non-cycle: {family} n={entry.n} "
                        f"{entry.canonical}"
                    )
            else:
                long_cycle = entry.is_cycle and entry.n > 4
                if nonrigid_irreducible and not long_cycle:
                    counterexamples.append(
                        f"nonrigid irreducible non-cycle: {family} n={entry.n} "
                        f"{entry.canonical}"
                    )
                elif long_cycle and not nonrigid_irreducible:
                    counterexamples.append(
                        f"cycle on more than 4 points not nonrigid irreducible: "
                        f"{family} n={entry.n} {entry.canonical}"
                    )
    return ScanReport(findings=tuple(findings), counterexamples=tuple(counterexamples))
