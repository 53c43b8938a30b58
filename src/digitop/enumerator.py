"""Generation of all isomorphism classes of connected images.

Three families:

* ``abstract`` -- connected images on n points, grown by attaching a new
  point to neighbor subsets of an (n-1)-point class and deduplicating by
  canonical form.  A child is labeled only when no other non-cut point
  has a smaller invariant (degree, then sorted neighbor degrees) than the
  new point: a deletion test in the manner of McKay's canonical
  augmentation (*Isomorph-free exhaustive generation*, 1998).  The
  induction still reaches every class: deleting a non-cut point w of
  least invariant from a connected image G leaves a connected parent, and
  attaching a point to w's neighbors there gives back G as a child that
  passes the test.  Two exact screens pick the subsets the test sees: a
  degree screen drops every subset whose size alone fails it (at most
  d0 + 1 points, d0 the least degree of a non-cut point of the parent),
  and of the rest only the least subset of each orbit of the parent's
  automorphism group is tried, since an orbit's subsets give isomorphic
  children.  The group's generators come from the canonical labeler's own
  search (:func:`digitop._pure._search`) on both backends;
* ``adj4`` -- images in Z^2 with 4-adjacency, via fixed polyominoes;
* ``adj8`` -- images in Z^2 with 8-adjacency, via fixed polyplets.

The fixed (translation-normalized) cell sets of one size come straight from
Redelmeier's enumeration (*Counting polyominoes: yet another attack*, 1981),
each exactly once, packed into one int with 16 bits per row; a lattice level
never reads a lower one.  A rotation or reflection of a cell set is an
isomorphic image, so only the least set of each D4 orbit (in the witness
order, sorted (x, y) tuples) is canonically labeled: a test on the packed
mask decides it before any decode.  Each level keeps the least witness cell
set per canonical code; a class is a union of whole orbits, so that witness
is always the least of its orbit and is never filtered out.
The shard merge in :mod:`digitop.catalog` folds classified slices through
the same least-witness rule.

A class is its canonical graph6 code.  The public enumerators return the
columns a catalog stores: the sorted codes of a level (``canonical``), and
for a lattice level each code with its least witness (``witness_cells``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from . import _kernels
from ._pure import _automorphism_generators, _bits, _spans
from .image import _encode_rows, graph6_decode

FAMILIES = ("abstract", "adj4", "adj8")

_W = 16  # bit-grid stride; supports cell sets up to 14 cells
MAX_CELLS = 14
_ONE_POINT_CODE = "@"  # graph6 of the single-point image

Cell = tuple[int, int]
Item = tuple[str, tuple[Cell, ...] | None]  # canonical code, least witness cells


@dataclass(frozen=True, order=True)
class CellSet:
    """A translation-normalized finite set of grid cells (min x = min y = 0).

    ``cells`` is a tuple of the distinct cells in (x, y) order, the witness
    order: the CSV writes it and cell sets compare by it.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self):
        cells = tuple(sorted(set(self.cells)))
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("a cell set needs at least one cell")
        if cells[0][0] != 0 or min([y for _, y in cells]) != 0:
            raise ValueError("cell set is not translation-normalized")

    @classmethod
    def from_points(cls, points: Iterable[Cell]) -> "CellSet":
        """Normalize arbitrary cells by translating the minima to zero."""
        pts = list(points)
        dx = min((x for x, _ in pts), default=0)
        dy = min((y for _, y in pts), default=0)
        return cls((x - dx, y - dy) for x, y in pts)

    @classmethod
    def parse(cls, text: str) -> "CellSet":
        """Parse the ``x,y;x,y;...`` witness format."""
        cells = []
        for chunk in text.strip().split(";"):
            try:
                x_str, y_str = chunk.split(",")
                cells.append((int(x_str), int(y_str)))
            except ValueError:
                raise ValueError(f"witness cell {chunk!r} is not x,y") from None
        return cls(cells)

    def as_string(self) -> str:
        return ";".join(f"{x},{y}" for x, y in self.cells)


# ---------------------------------------------------------------------------
# Cell-set bit masks


_TRANSPOSE_BLOCKS = [(15 * j, int(("1" * j + "0" * j) * (8 // j), 2)
                      * int(("0000" * j + "0001" * j) * (8 // j), 16)) for j in (8, 4, 2, 1)]
_LOW_BYTES = int("00ff" * 16, 16)
# Each byte with its 8 bits reversed, by the multiply-and-modulus trick of HAKMEM.
_REVERSED_BYTE = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))


def _transpose(mask: int) -> int:
    """The 16 x 16 bit transpose, bit 16r + c to bit 16c + r: a y-major mask
    (bit 16y + x, one 16-bit lane per row) becomes x-major.  Stage j swaps,
    in every 2j x 2j block, columns j..2j-1 of rows 0..j-1 (``blocks``) with
    columns 0..j-1 of rows j..2j-1 (Warren, *Hacker's Delight*, section 7-3).
    """
    for shift, blocks in _TRANSPOSE_BLOCKS:
        swap = (mask ^ mask >> shift) & blocks
        mask ^= swap ^ swap << shift
    return mask


def _reverse_rows(packed: int, top: int) -> int:
    """Lanes 0..top in reverse order: bytes reversed, then swapped in pairs."""
    packed = int.from_bytes(packed.to_bytes(2 * top + 2, "big"), "little")
    return (packed & _LOW_BYTES) << 8 | packed >> 8 & _LOW_BYTES


def _rotate(packed: int, top: int, right: int) -> int:
    """Lanes 0..top, bits 0..right in each, turned 180 degrees: all bits reversed."""
    flipped = packed.to_bytes(2 * top + 2, "big").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "little") >> 15 - right


def _witness_cells(mask: int) -> list[Cell]:
    """The cells of a y-major mask in (x, y) order: its transpose's ascending bits."""
    return [(bit >> 4, bit & 15) for bit in _bits(_transpose(mask))]


def grow_masks(kind: int, n: int, k: int = 1, index: int = 0) -> list[int]:
    """Every fixed n-cell set exactly once, as a translation-normalized mask.

    Redelmeier's enumeration: each set is grown from its least (x, y) cell
    by a depth-first search that takes cells from an untried set and never
    takes back a cell once a branch has passed it over, so no set is seen
    twice and no deduplication is needed.  The root sits in column 0, so a
    set is normalized by shifting out its empty low rows.  Slice ``index``
    of ``k`` (0 <= index < k) keeps every k-th set in search order, starting
    at ``index``: the whole list's ``[index::k]``, with no other set stored.
    """
    if kind not in (4, 8):
        raise ValueError("adjacency kind must be 4 or 8")
    if not 1 <= n <= MAX_CELLS:
        raise ValueError(f"cell count {n} outside 1..{MAX_CELLS}")
    if not 0 <= index < k:
        raise ValueError(f"slice {index} of {k}: need k >= 1 and 0 <= index < k")
    # Per grid bit, the neighbors that may join a set rooted at (0, n - 1):
    # cells after the root in (x, y) order, in the n columns and 2n - 1 rows
    # that n cells can reach.
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if kind == 8:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    reachable = {(x, y) for x in range(n) for y in range(2 * n - 1) if (x, y) > (0, n - 1)}
    neighbors = []
    for bit in range((2 * n - 1) * _W):
        x, y = bit & 15, bit >> 4
        near = [(x + dx, y + dy) for dx, dy in steps]
        neighbors.append(sum(1 << (ny * _W + nx) for nx, ny in near if (nx, ny) in reachable))
    out: list[int] = []
    skip = index  # sets to pass over before the next one this slice keeps

    def extend(cells: int, untried: int, seen: int, size: int) -> None:
        nonlocal skip
        while untried:
            low = untried & -untried
            untried ^= low
            if size + 1 == n:
                if skip:
                    skip -= 1
                else:
                    skip = k - 1
                    grown = cells | low
                    out.append(grown >> ((grown & -grown).bit_length() - 1 & ~15))
            else:
                fresh = neighbors[low.bit_length() - 1] & ~seen
                extend(cells | low, untried | fresh, seen | fresh, size + 1)

    root = 1 << (n - 1) * _W
    extend(0, root, root, 0)
    return out


# ---------------------------------------------------------------------------
# Deduplication


def least_witness_items(items: Iterable[tuple]) -> list[tuple]:
    """One item per code, sorted by code.

    An item starts ``(code, witness, ...)``; any further fields ride along.
    Each code keeps the item with its least witness (a tuple of cells in
    (x, y) order, or a :class:`CellSet`, which compares by that tuple), so
    the result does not depend on the order of ``items``.
    """
    best: dict[str, tuple] = {}
    for item in items:
        held = best.get(item[0])
        if held is None or (item[1] is not None and (held[1] is None or item[1] < held[1])):
            best[item[0]] = item
    return [best[code] for code in sorted(best)]


# ---------------------------------------------------------------------------
# Family generation steps


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


def _screened_subsets(rows: list[int], degrees: list[int]) -> list[int]:
    """The nonempty neighbor subsets of a connected parent that can pass the
    deletion test, in ascending order.

    Let d0 be the least degree of a non-cut point of the parent.  Such a
    point p stays non-cut in the child unless the subset is {p}, and gains at
    most one neighbor.  So a subset of k >= d0 + 2 points, or of d0 + 1
    points that misses a non-cut point of degree d0, leaves an old non-cut
    point of smaller degree than the new point, and the test rejects it.
    The screen depends only on degrees and cut points, so every automorphism
    of the parent maps the subsets it keeps onto themselves.
    """
    everyone = (1 << len(rows)) - 1
    noncut = [p for p in range(len(rows)) if _spans(rows, everyone ^ (1 << p))]
    d0 = min(degrees[p] for p in noncut)
    must = sum(1 << p for p in noncut if degrees[p] == d0)
    points = [1 << p for p in range(len(rows))]
    subsets = [sum(chosen) for k in range(1, d0 + 1) for chosen in combinations(points, k)]
    rest = d0 + 1 - must.bit_count()
    if rest >= 0:
        free = [bit for bit in points if not bit & must]
        subsets += [must | sum(chosen) for chosen in combinations(free, rest)]
    return sorted(subsets)


def _orbit_representatives(subsets: list[int], generators: list[list[int]]) -> list[int]:
    """The first of ``subsets`` in each orbit of the group that
    ``generators`` generate, in order.  ``subsets`` must be a union of
    orbits; an orbit's other members are reached by breadth-first search."""
    if not generators:
        return subsets
    # A generator g moves a point set bit by bit: bit p goes to bit g[p].
    moves = [[1 << q for q in g].__getitem__ for g in generators]
    seen: set[int] = set()
    kept = []
    for subset in subsets:
        if subset not in seen:
            kept.append(subset)
            seen.add(subset)
            todo = [subset]
            for item in todo:
                for move in moves:
                    image = sum(map(move, _bits(item)))
                    if image not in seen:
                        seen.add(image)
                        todo.append(image)
    return kept


def abstract_children(parent_codes: list[str]) -> list[str]:
    """Attach one new point to neighbor subsets of each parent.

    Returns the sorted canonical codes of the distinct children.

    A child is canonically labeled only when no other non-cut point has a
    smaller invariant than the new point (degree, then the sorted degrees of
    the neighbors); the new point itself is never a cut point, since the
    parent is connected.  This loses no class: take a connected image G and
    a non-cut point w of least invariant.  G - w is connected, so its class
    is a parent at the level below (in shard runs too), and attaching a
    point to w's neighbors there gives G back as a child that passes the
    test.  The invariant is isomorphism-invariant, so which parent labeling
    is used does not matter.

    Two exact screens come before any rows are built.  The degree screen
    (:func:`_screened_subsets`) drops the subsets that fail the test on
    degrees alone.  Of the rest, only the first subset of each orbit of the
    parent's automorphism group is tried: an automorphism that maps one
    subset onto another extends to an isomorphism of the two children that
    fixes the new point, so they share a class and a test verdict.  The
    generators come from the labeler's walk over the parent, which meets
    every automorphism as a pair of leaves of equal key, and each orbit is
    closed by breadth-first search over them.
    """
    codes: set[str] = set()
    for code in parent_codes:
        parent = graph6_decode(code)
        m = parent.n
        base = list(parent.rows)
        degrees = [row.bit_count() for row in base]
        new_bit = 1 << m
        child_n = m + 1
        subsets = _screened_subsets(base, degrees)
        for subset in _orbit_representatives(subsets, _automorphism_generators(base)):
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
            codes.add(_encode_rows(child_n, canon))
    return sorted(codes)


def _sorts_before(image: int, own: int) -> bool:
    """Whether one set sorts before another of its size, both packed x-major:
    their cells in (x, y) order are their bits in ascending order."""
    diff = own ^ image
    return diff & -diff & image != 0


def _least_in_orbit(mask: int) -> bool:
    """Whether no rotation or reflection of the set sorts before it as a
    sorted (x, y) tuple, the order that :func:`least_witness_items` uses.

    Packed x-major, the set is ``own``, the transpose of ``mask``; its other
    images are ``mask`` (the transposed set, which alone rejects about half
    of all sets) and ``own`` or ``mask`` with lanes reversed, turned, or both.
    """
    own = _transpose(mask)
    if _sorts_before(mask, own):
        return False
    w = own.bit_length() - 1 >> 4  # max x
    h = mask.bit_length() - 1 >> 4  # max y
    turned = _rotate(own, w, h)
    if (_sorts_before(turned, own) or _sorts_before(_reverse_rows(turned, w), own)
            or _sorts_before(_reverse_rows(own, w), own)):
        return False
    turned = _rotate(mask, h, w)
    return not (_sorts_before(turned, own) or _sorts_before(_reverse_rows(turned, h), own)
                or _sorts_before(_reverse_rows(mask, h), own))


def mask_classes(kind: int, masks: Iterable[int]) -> list[Item]:
    """Canonicalize cell-set masks: sorted (code, least witness) per class.

    Only a mask that is the least of its D4 orbit (its rotations and
    reflections) is labeled.  Every image in an orbit is isomorphic, so a
    class is a union of whole orbits, and its least witness is the least
    member of its own orbit: the witnesses are those of labeling every mask.
    In a shard slice, each orbit's least member falls in exactly one slice,
    so the least-witness merge still sees every class.  Distinct sets often
    induce the same adjacency rows, so each distinct row tuple is labeled
    once per call.
    """
    def items() -> Iterator[Item]:
        codes: dict[tuple[int, ...], str] = {}
        for mask in masks:
            if not _least_in_orbit(mask):
                continue
            cells = _witness_cells(mask)
            rows = tuple(_kernels.lattice_rows(kind, cells))
            code = codes.get(rows)
            if code is None:
                n = len(cells)
                code = codes[rows] = _encode_rows(n, _kernels.canonical_rows(n, rows))
            yield code, tuple(cells)

    return least_witness_items(items())


# ---------------------------------------------------------------------------
# Public enumeration operations


def enumerate_abstract_connected(n: int) -> list[str]:
    """The sorted canonical codes of the connected images on exactly n points."""
    if n < 1:
        raise ValueError("point count must be positive")
    codes = [_ONE_POINT_CODE]
    for _ in range(2, n + 1):
        codes = abstract_children(codes)
    return codes


def _cell_sets(masks: list[int]) -> list[CellSet]:
    # Sorted as plain lists: each comparison of two CellSets is a Python call.
    return [CellSet(cells) for cells in sorted(map(_witness_cells, masks))]


def enumerate_fixed_polyominoes(n: int) -> list[CellSet]:
    """All edge-connected n-cell sets up to translation (fixed polyominoes)."""
    return _cell_sets(grow_masks(4, n))


def enumerate_fixed_polyplets(n: int) -> list[CellSet]:
    """All 8-connected n-cell sets up to translation (fixed polyplets)."""
    return _cell_sets(grow_masks(8, n))


def enumerate_lattice_images(kind: int, n: int) -> list[tuple[str, CellSet]]:
    """(code, least witness) of every class of connected n-point images in
    Z^2 with the given adjacency, sorted by code.

    The witness realizes its class in Z^2, so each catalog entry is
    realizable by construction.
    """
    return [(code, CellSet(cells)) for code, cells in mask_classes(kind, grow_masks(kind, n))]
