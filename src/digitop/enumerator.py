"""Generation of all isomorphism classes of connected images.

Three families:

* ``abstract`` -- connected images on n points, grown by attaching a new
  point to every nonempty subset of an (n-1)-point class and deduplicating
  by canonical form.  A child is labeled only when no other non-cut point
  has a smaller invariant (degree, then sorted neighbor degrees) than the
  new point: a deletion test in the manner of McKay's canonical
  augmentation.  The induction still reaches every class: deleting a
  non-cut point w of least invariant from a connected image G leaves a
  connected parent, and attaching a point to w's neighbors there gives
  back G as a child that passes the test;
* ``adj4`` -- images in Z^2 with 4-adjacency, via fixed polyominoes;
* ``adj8`` -- images in Z^2 with 8-adjacency, via fixed polyplets.

Cell sets are kept up to translation only (fixed counting); rotations and
reflections collapse in the final graph-isomorphism pass.  Internally a cell
set lives in a 16x16 bit grid packed into one int, which makes growth,
normalization, and deduplication a handful of integer operations.

Deduplication goes through :class:`DedupStore`, which spills sorted runs to
disk under a memory budget and merges them back deterministically, keeping
the least witness cell set per canonical code.  Shard runs write their slice
of a level as sorted text files (one graph6 code per line, plus a parallel
witness-cells file for the lattice families) that merge by sorted union.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import _kernels
from .image import CanonicalForm, DigitalImage, _bits, _encode_rows, graph6_decode

FAMILIES = ("abstract", "adj4", "adj8")

_W = 16  # bit-grid stride; supports cell sets up to 14 cells
MAX_CELLS = 14
_COL0 = sum(1 << (_W * y) for y in range(_W))
_COL_LAST = _COL0 << (_W - 1)
_ONE_POINT_CODE = "@"  # graph6 of the single-point image

Cell = tuple[int, int]


@dataclass(frozen=True)
class CellSet:
    """A translation-normalized finite set of grid cells (min x = min y = 0)."""

    cells: frozenset[Cell]

    def __post_init__(self):
        if not isinstance(self.cells, frozenset):
            object.__setattr__(self, "cells", frozenset(self.cells))
        if not self.cells:
            raise ValueError("a cell set needs at least one cell")
        if min(x for x, _ in self.cells) != 0 or min(y for _, y in self.cells) != 0:
            raise ValueError("cell set is not translation-normalized")

    @classmethod
    def from_points(cls, points: Iterable[Cell]) -> "CellSet":
        """Normalize arbitrary cells by translating the minima to zero."""
        pts = list(points)
        dx = min(x for x, _ in pts)
        dy = min(y for _, y in pts)
        return cls(frozenset((x - dx, y - dy) for x, y in pts))

    @classmethod
    def parse(cls, text: str) -> "CellSet":
        """Parse the ``x,y;x,y;...`` witness format."""
        cells = []
        for chunk in text.strip().split(";"):
            x_str, y_str = chunk.split(",")
            cells.append((int(x_str), int(y_str)))
        return cls(frozenset(cells))

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)

    def as_string(self) -> str:
        return ";".join(f"{x},{y}" for x, y in self.sorted_cells())


@dataclass(frozen=True)
class ImageClass:
    """One isomorphism class: canonical representative plus metadata."""

    family: str
    n: int
    canonical: CanonicalForm
    representative: DigitalImage
    witness: CellSet | None = None


# ---------------------------------------------------------------------------
# Cell-set bit masks


def _normalize_mask(mask: int) -> int:
    low = (mask & -mask).bit_length() - 1
    min_y = low >> 4
    folded = mask
    folded |= folded >> 128
    folded |= folded >> 64
    folded |= folded >> 32
    folded |= folded >> 16
    columns = folded & 0xFFFF
    min_x = (columns & -columns).bit_length() - 1
    return mask >> (min_y * _W + min_x)


def _mask_neighbors(kind: int, mask: int) -> int:
    left_ok = mask & ~_COL0
    right_ok = mask & ~_COL_LAST
    spread = (right_ok << 1) | (left_ok >> 1) | (mask << _W) | (mask >> _W)
    if kind == 8:
        spread |= (right_ok << (_W + 1)) | (left_ok << (_W - 1))
        spread |= (right_ok >> (_W - 1)) | (left_ok >> (_W + 1))
    return spread


def _mask_cells(mask: int) -> list[Cell]:
    cells = []
    while mask:
        low = mask & -mask
        bit = low.bit_length() - 1
        cells.append((bit & 15, bit >> 4))
        mask ^= low
    cells.sort()
    return cells


def _cells_mask(cells: Iterable[Cell]) -> int:
    mask = 0
    for x, y in cells:
        if not (0 <= x < _W and 0 <= y < _W):
            raise ValueError(f"cell {x, y} is outside the {_W}x{_W} working grid")
        mask |= 1 << (y * _W + x)
    return mask


def grow_masks(
    kind: int,
    parent_masks: list[int],
    selector: Callable[[int], bool] | None = None,
) -> list[int]:
    """All one-cell extensions of the parents, normalized and deduplicated.

    ``selector`` filters parents by index (for sharding); the parent list
    must be sorted so indices are reproducible.  Output is sorted.
    """
    children: set[int] = set()
    margin = _W + 1  # shift parents off the axes so neighbors stay in-grid
    for index, parent in enumerate(parent_masks):
        if selector is not None and not selector(index):
            continue
        shifted = parent << margin
        frontier = _mask_neighbors(kind, shifted) & ~shifted
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            children.add(_normalize_mask(shifted | low))
    return sorted(children)


# ---------------------------------------------------------------------------
# Deduplication store


class DedupStore:
    """Canonical-code set with least-witness values and disk spill.

    ``add`` keeps the minimum witness (compared as sorted cell tuples) per
    code.  When the approximate memory footprint exceeds the budget, the
    in-memory map is written out as a sorted run; ``sorted_items`` merges the
    runs and the residue back into one sorted, deduplicated stream.
    """

    _OVERHEAD = 120  # rough per-entry dict/str cost in bytes

    def __init__(self, mem_budget_mb: float | None = None, tmp_dir: str | None = None):
        self._items: dict[str, tuple[Cell, ...] | None] = {}
        self._budget = None if mem_budget_mb is None else int(mem_budget_mb * 1024 * 1024)
        self._tmp_dir = tmp_dir
        self._approx = 0
        self._runs: list[str] = []

    def add(self, code: str, witness: tuple[Cell, ...] | None = None) -> None:
        existing = self._items.get(code, _MISSING)
        if existing is _MISSING:
            self._items[code] = witness
            self._approx += self._OVERHEAD + len(code) + (
                0 if witness is None else 16 * len(witness)
            )
            if self._budget is not None and self._approx > self._budget:
                self._spill()
        elif witness is not None and (existing is None or witness < existing):
            self._items[code] = witness

    def _spill(self) -> None:
        fd, path = tempfile.mkstemp(prefix="digitop-run-", suffix=".txt", dir=self._tmp_dir)
        with os.fdopen(fd, "w") as handle:
            for code, witness in sorted(self._items.items()):
                handle.write(_serialize_item(code, witness))
        self._runs.append(path)
        self._items.clear()
        self._approx = 0

    def sorted_items(self) -> list[tuple[str, tuple[Cell, ...] | None]]:
        if not self._runs:
            return sorted(self._items.items())
        if self._items:
            self._spill()
        streams = [_iter_run(path) for path in self._runs]
        merged = list(merge_sorted_items(streams))
        for path in self._runs:
            os.unlink(path)
        self._runs = []
        return merged

    def sorted_codes(self) -> list[str]:
        return [code for code, _ in self.sorted_items()]


_MISSING = object()


def _serialize_item(code: str, witness: tuple[Cell, ...] | None) -> str:
    if witness is None:
        return code + "\n"
    return code + "\t" + ";".join(f"{x},{y}" for x, y in witness) + "\n"


def _parse_item(line: str) -> tuple[str, tuple[Cell, ...] | None]:
    line = line.rstrip("\n")
    if "\t" not in line:
        return line, None
    code, cells = line.split("\t", 1)
    return code, tuple(
        (int(x), int(y)) for x, y in (chunk.split(",") for chunk in cells.split(";"))
    )


def _iter_run(path: str) -> Iterator[tuple[str, tuple[Cell, ...] | None]]:
    with open(path) as handle:
        for line in handle:
            yield _parse_item(line)


def merge_sorted_items(
    streams: Iterable[Iterator[tuple[str, tuple[Cell, ...] | None]]],
) -> Iterator[tuple[str, tuple[Cell, ...] | None]]:
    """Merge code-sorted item streams, combining duplicates by least witness."""
    merged = heapq.merge(*streams, key=lambda item: item[0])
    current_code: str | None = None
    current_witness: tuple[Cell, ...] | None = None
    for code, witness in merged:
        if code != current_code:
            if current_code is not None:
                yield current_code, current_witness
            current_code, current_witness = code, witness
        elif witness is not None and (current_witness is None or witness < current_witness):
            current_witness = witness
    if current_code is not None:
        yield current_code, current_witness


# ---------------------------------------------------------------------------
# Family generation steps


def _spans(rows: list[int], alive: int) -> bool:
    """Whether the points in the ``alive`` bitmask induce a connected image."""
    seen = frontier = alive & -alive
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = rows[low.bit_length() - 1] & alive & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == alive


def _smaller_deletable_point(rows: list[int], parent_degrees: list[int], subset: int) -> bool:
    """Whether some old point of the child is a better point to delete than
    the new one (index ``len(parent_degrees)``, neighbors ``subset``).

    An old point is better when it is not a cut point and its invariant is
    smaller: its degree, then the sorted degrees of its neighbors.  The
    flood fill runs only on points whose invariant is smaller.
    """
    degree = subset.bit_count()
    everyone = (1 << len(rows)) - 1
    degrees = None
    for point, parent_degree in enumerate(parent_degrees):
        point_degree = parent_degree + (subset >> point & 1)
        if point_degree > degree:
            continue
        if point_degree == degree:
            if degrees is None:
                degrees = [d + (subset >> p & 1) for p, d in enumerate(parent_degrees)]
                degrees.append(degree)
                new_key = sorted([degrees[q] for q in _bits(subset)])
            if sorted([degrees[q] for q in _bits(rows[point])]) >= new_key:
                continue
        if _spans(rows, everyone ^ (1 << point)):
            return True
    return False


def abstract_children(
    parent_codes: list[str],
    store: DedupStore,
    selector: Callable[[int], bool] | None = None,
) -> DedupStore:
    """Attach one new point to every nonempty neighbor subset of each parent.

    A child is canonically labeled only when no other non-cut point has a
    smaller invariant than the new point (degree, then the sorted degrees of
    the neighbors); the new point itself is never a cut point, since the
    parent is connected.  This loses no class: take a connected image G and
    a non-cut point w of least invariant.  G - w is connected, so its class
    is a parent at the level below (in shard runs too), and attaching a
    point to w's neighbors there gives G back as a child that passes the
    test.  The invariant is isomorphism-invariant, so which parent labeling
    is used does not matter.
    """
    for index, code in enumerate(parent_codes):
        if selector is not None and not selector(index):
            continue
        parent = graph6_decode(code)
        m = parent.n
        base = list(parent.rows)
        degrees = [row.bit_count() for row in base]
        new_bit = 1 << m
        child_n = m + 1
        for subset in range(1, 1 << m):
            rows = base.copy()
            rows.append(subset)
            remaining = subset
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                rows[low.bit_length() - 1] |= new_bit
            if _smaller_deletable_point(rows, degrees, subset):
                continue
            canon = _kernels.canonical_rows(child_n, rows)
            store.add(_encode_rows(child_n, canon))
    return store


def mask_classes(kind: int, masks: Iterable[int], store: DedupStore) -> DedupStore:
    """Canonicalize each cell-set mask and record the least witness per class."""
    for mask in masks:
        cells = _mask_cells(mask)
        rows = _kernels.lattice_rows(kind, cells)
        canon = _kernels.canonical_rows(len(cells), rows)
        store.add(_encode_rows(len(cells), canon), tuple(cells))
    return store


# ---------------------------------------------------------------------------
# Public enumeration operations


def enumerate_abstract_connected(n: int) -> list[ImageClass]:
    """All isomorphism classes of connected images on exactly n points."""
    if n < 1:
        raise ValueError("point count must be positive")
    codes = [_ONE_POINT_CODE]
    for _ in range(2, n + 1):
        codes = abstract_children(codes, DedupStore()).sorted_codes()
    return [
        ImageClass("abstract", n, CanonicalForm(code), graph6_decode(code))
        for code in codes
    ]


def _fixed_cell_masks(kind: int, n: int) -> list[int]:
    if n < 1:
        raise ValueError("cell count must be positive")
    if n > MAX_CELLS:
        raise ValueError(f"cell count {n} exceeds the supported maximum ({MAX_CELLS})")
    masks = [1]
    for _ in range(2, n + 1):
        masks = grow_masks(kind, masks)
    return masks


def _cell_sets(masks: list[int]) -> list[CellSet]:
    sets = [CellSet(frozenset(_mask_cells(mask))) for mask in masks]
    sets.sort(key=lambda cs: cs.sorted_cells())
    return sets


def enumerate_fixed_polyominoes(n: int) -> list[CellSet]:
    """All edge-connected n-cell sets up to translation (fixed polyominoes)."""
    return _cell_sets(_fixed_cell_masks(4, n))


def enumerate_fixed_polyplets(n: int) -> list[CellSet]:
    """All 8-connected n-cell sets up to translation (fixed polyplets)."""
    return _cell_sets(_fixed_cell_masks(8, n))


def enumerate_lattice_images(kind: int, n: int) -> list[ImageClass]:
    """All classes of connected n-point images in Z^2 with the given adjacency.

    Every class carries a witness cell set, so each catalog entry is
    realizable in Z^2 by construction.
    """
    if kind not in (4, 8):
        raise ValueError("adjacency kind must be 4 or 8")
    family = f"adj{kind}"
    masks = _fixed_cell_masks(kind, n)
    items = mask_classes(kind, masks, DedupStore()).sorted_items()
    classes = []
    for code, witness in items:
        assert witness is not None
        classes.append(
            ImageClass(
                family,
                n,
                CanonicalForm(code),
                graph6_decode(code),
                CellSet(frozenset(witness)),
            )
        )
    return classes


# ---------------------------------------------------------------------------
# Shard slice files (one canonical code per line; parallel .cells file with
# one witness per line for the lattice families)


def shard_stem(family: str, n: int, index: int, count: int) -> str:
    return f"{family}_n{n:02d}.shard{index}of{count}"


def write_shard_files(
    directory: Path,
    family: str,
    n: int,
    index: int,
    count: int,
    items: list[tuple[str, tuple[Cell, ...] | None]],
) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    stem = shard_stem(family, n, index, count)
    code_path = directory / f"{stem}.g6"
    paths = [code_path]
    with_witness = family != "abstract"
    tmp = code_path.with_name(code_path.name + ".tmp")
    with open(tmp, "w") as handle:
        for code, _ in items:
            handle.write(code + "\n")
    os.replace(tmp, code_path)
    if with_witness:
        cells_path = directory / f"{stem}.cells"
        tmp = cells_path.with_name(cells_path.name + ".tmp")
        with open(tmp, "w") as handle:
            for _, witness in items:
                assert witness is not None
                handle.write(";".join(f"{x},{y}" for x, y in witness) + "\n")
        os.replace(tmp, cells_path)
        paths.append(cells_path)
    return paths


def read_shard_files(
    directory: Path, family: str, n: int, index: int, count: int
) -> Iterator[tuple[str, tuple[Cell, ...] | None]]:
    stem = shard_stem(family, n, index, count)
    code_path = directory / f"{stem}.g6"
    cells_path = directory / f"{stem}.cells"
    codes = code_path.read_text().splitlines()
    if family == "abstract":
        for code in codes:
            yield code, None
        return
    witnesses = cells_path.read_text().splitlines()
    if len(witnesses) != len(codes):
        raise ValueError(f"shard files {stem} disagree on entry count")
    for code, cells in zip(codes, witnesses):
        yield code, tuple(
            (int(x), int(y)) for x, y in (chunk.split(",") for chunk in cells.split(";"))
        )


def shard_files_exist(directory: Path, family: str, n: int, index: int, count: int) -> bool:
    stem = shard_stem(family, n, index, count)
    if not (directory / f"{stem}.g6").exists():
        return False
    return family == "abstract" or (directory / f"{stem}.cells").exists()
