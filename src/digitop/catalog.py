"""Catalog persistence, report tables, and the conjecture scanner.

A catalog is a directory of CSV files, one per (family, n), each row one
isomorphism class with its classification flags, planarity, cycle flag, and
(for the lattice families) a witness cell set.  Files are written atomically
and sorted by canonical code, so independent runs, with any shard count,
produce byte-identical output.  An existing file for some n is trusted and
skipped, which makes interrupted long builds resumable per n.
"""

from __future__ import annotations

import csv
import itertools
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from . import _kernels
from .enumerator import (
    FAMILIES,
    CellSet,
    Item,
    abstract_children,
    grow_masks,
    least_witness_items,
    mask_classes,
    read_shard_files,
    shard_files_exist,
    write_shard_files,
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

_PARALLEL_THRESHOLD = 256  # below this, process fan-out costs more than it saves


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
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}: malformed row {row!r}")
            family, n, code, red, pointed, rigid, planar, cycle, cells = row
            entries.append(
                CatalogEntry(
                    family=family,
                    n=int(n),
                    canonical=code,
                    reducible=bool(int(red)),
                    pointed_reducible=bool(int(pointed)),
                    rigid=bool(int(rigid)),
                    planar=bool(int(planar)),
                    is_cycle=bool(int(cycle)),
                    witness=CellSet.parse(cells) if cells else None,
                )
            )
    return entries


# ---------------------------------------------------------------------------
# Classification of code lists


def _classify_one(code: str) -> tuple[bool, bool, bool, bool, bool]:
    image = graph6_decode(code)
    reducible, pointed, rigid = _kernels.classify_flags(image.n, list(image.rows))
    planar = is_planar(image)
    cycle = all(image.degree(i) == 2 for i in range(image.n))
    return reducible, pointed, rigid, planar, cycle


def worker_count() -> int:
    env = os.environ.get("DIGITOP_THREADS")
    if env is not None:
        count = int(env)
        if count < 1:
            raise ValueError("DIGITOP_THREADS must be a positive integer")
        return count
    return os.cpu_count() or 1


def _classify_codes(codes: list[str]) -> list[tuple[bool, bool, bool, bool, bool]]:
    workers = worker_count()
    if workers > 1 and len(codes) >= _PARALLEL_THRESHOLD:
        chunk = max(16, len(codes) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_classify_one, codes, chunksize=chunk))
    return [_classify_one(code) for code in codes]


# ---------------------------------------------------------------------------
# Catalog builds


def _level_items(
    family: str,
    n: int,
    parents: list,
    selector: Callable[[int], bool] | None,
) -> tuple[list[Item], list]:
    """One enumeration level: sorted (code, witness) items plus next parents.

    Next parents are canonical codes for the abstract family and the full
    fixed cell-set masks for the lattice families (class witnesses alone do
    not span the growth frontier).
    """
    if family == "abstract":
        if n == 1:
            codes = ["@"] if selector is None or selector(0) else []
        else:
            codes = abstract_children(parents, selector)
        return [(code, None) for code in codes], codes
    kind = 4 if family == "adj4" else 8
    if n == 1:
        masks = [1] if selector is None or selector(0) else []
    else:
        masks = grow_masks(kind, parents, selector)
    return mask_classes(kind, masks), masks


def _classified_entries(family: str, n: int, items: list[Item]) -> list[CatalogEntry]:
    flags = _classify_codes([code for code, _ in items])
    entries = []
    for (code, witness), (reducible, pointed, rigid, planar, cycle) in zip(items, flags):
        entries.append(
            CatalogEntry(
                family=family,
                n=n,
                canonical=code,
                reducible=reducible,
                pointed_reducible=pointed,
                rigid=rigid,
                planar=planar,
                is_cycle=cycle,
                witness=None if witness is None else CellSet(frozenset(witness)),
            )
        )
    return entries


def _lattice_parents(family: str, n: int, parents: list) -> list:
    """The fixed cell-set masks of level n, grown from those of level n - 1."""
    kind = 4 if family == "adj4" else 8
    return [1] if n == 1 else grow_masks(kind, parents)


def _resume_parents(family: str, n: int, parents: list, entries: list[CatalogEntry]) -> list:
    if family == "abstract":
        return [entry.canonical for entry in entries]
    return _lattice_parents(family, n, parents)


def _level_parents(family: str, n: int, parents: list) -> list:
    """Next-level parents without classifying; lattice levels skip the
    canonical pass since growth needs only the raw masks."""
    if family == "abstract":
        return _level_items(family, n, parents, None)[1]
    return _lattice_parents(family, n, parents)


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

    Plain mode (shard = None, shards = 1) writes one CSV per n, skipping
    levels whose file already exists.  A shard run (shard = i) writes only
    its slice of the final level as shard files and returns no entries.  A
    merge run (shards = k, shard = None) builds any missing slices itself,
    merges them, and writes the same CSVs a plain run would.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if shards < 1:
        raise ValueError("shard count must be positive")
    if shard is not None and not 0 <= shard < shards:
        raise ValueError(f"shard index {shard} outside 0..{shards - 1}")
    out_dir = Path(out_dir)
    shard_dir = out_dir / "shards"
    say = log if log is not None else (lambda message: None)

    collected: list[CatalogEntry] = []
    parents: list = []
    for n in range(1, n_max + 1):
        final = n == n_max

        if shard is not None:
            # Slice run: enumerate lower levels in memory only, then emit
            # this shard's part of the final level.
            if final:
                if not shard_files_exist(shard_dir, family, n, shard, shards):
                    items, _ = _level_items(
                        family, n, parents, lambda index: index % shards == shard
                    )
                    write_shard_files(shard_dir, family, n, shard, shards, items)
                    say(f"{family} n={n}: wrote shard {shard} of {shards} ({len(items)} classes)")
                return []
            path = catalog_path(out_dir, family, n)
            if path.exists():
                parents = _resume_parents(family, n, parents, read_catalog_csv(path))
            else:
                parents = _level_parents(family, n, parents)
            continue

        path = catalog_path(out_dir, family, n)
        if path.exists():
            entries = read_catalog_csv(path)
            say(f"{family} n={n}: kept existing file ({len(entries)} classes)")
            collected.extend(entries)
            parents = _resume_parents(family, n, parents, entries)
            continue

        if final and shards > 1:
            for index in range(shards):
                if shard_files_exist(shard_dir, family, n, index, shards):
                    continue
                items, _ = _level_items(
                    family, n, parents, lambda i, index=index: i % shards == index
                )
                write_shard_files(shard_dir, family, n, index, shards, items)
                say(f"{family} n={n}: wrote shard {index} of {shards} ({len(items)} classes)")
            items = least_witness_items(
                itertools.chain.from_iterable(
                    read_shard_files(shard_dir, family, n, index, shards)
                    for index in range(shards)
                )
            )
        else:
            items, parents = _level_items(family, n, parents, None)

        say(f"{family} n={n}: {len(items)} classes, classifying")
        entries = _classified_entries(family, n, items)
        write_catalog_csv(path, entries)
        say(f"{family} n={n}: wrote {path}")
        collected.extend(entries)
    return collected


# ---------------------------------------------------------------------------
# Reports


def _family_levels(catalog_dir: Path | str, family: str) -> list[int]:
    directory = Path(catalog_dir)
    levels = []
    for path in directory.glob(f"{family}_n*.csv"):
        stem = path.stem[len(family) + 2 :]
        if stem.isdigit():
            levels.append(int(stem))
    return sorted(levels)


def build_report(catalog_dir: Path | str, family: str) -> ReportTable:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    levels = _family_levels(catalog_dir, family)
    if not levels:
        raise FileNotFoundError(f"no catalog files for family {family!r} in {catalog_dir}")
    warnings = tuple(
        f"missing catalog file for {family} n={n}"
        for n in range(1, levels[-1] + 1)
        if n not in set(levels)
    )
    rows = []
    for n in levels:
        entries = read_catalog_csv(catalog_path(catalog_dir, family, n))
        rows.append(
            ReportRow(
                n=n,
                images=len(entries),
                pointed_irreducible=sum(e.pointed_irreducible for e in entries),
                irreducible=sum(e.irreducible for e in entries),
                rigid=sum(e.rigid for e in entries),
            )
        )
    return ReportTable(family=family, rows=tuple(rows), warnings=warnings)


_REPORT_ROWS = (
    ("images", "Images"),
    ("pointed_irreducible", "Pointed irreducible"),
    ("irreducible", "Irreducible"),
    ("rigid", "Rigid"),
)


def render_report(catalog_dir: Path | str, family: str, fmt: str = "csv") -> str:
    """The four-row count table across all available n, as CSV or markdown."""
    table = build_report(catalog_dir, family)
    ns = [row.n for row in table.rows]
    if fmt == "csv":
        lines = ["n," + ",".join(str(n) for n in ns)]
        for attr, _ in _REPORT_ROWS:
            values = ",".join(str(getattr(row, attr)) for row in table.rows)
            lines.append(f"{attr},{values}")
        return "\n".join(lines) + "\n"
    if fmt == "md":
        header = "| n | " + " | ".join(str(n) for n in ns) + " |"
        rule = "|---" * (len(ns) + 1) + "|"
        lines = [header, rule]
        for attr, label in _REPORT_ROWS:
            values = " | ".join(str(getattr(row, attr)) for row in table.rows)
            lines.append(f"| {label} | {values} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


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
    findings: list[CatalogEntry] = []
    counterexamples: list[str] = []
    for family in FAMILIES:
        for n in _family_levels(directory, family):
            for entry in read_catalog_csv(catalog_path(directory, family, n)):
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
