"""Digital images, the graph6 codec, canonical forms, and graph predicates.

A binary digital image is a point set with a symmetric antireflexive
adjacency relation; up to isomorphism it is exactly a simple graph.  Points
are labeled ``0..n-1`` and adjacency is stored as one integer bitmask per
point (bit ``v`` of ``rows[u]`` set iff ``u ~ v``).  An isomorphism class is
named by one plain string, the graph6 code of its canonical labeling: the
``canonical`` column of a catalog CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _kernels
from ._pure import _bits, _lr_planar, _spans

GRAPH6_MAX_N = 62
_G6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 data.

    ``offset`` is the byte offset of the offending character in the input
    string, or None for size errors on encode.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class DigitalImage:
    """A point set ``0..n-1`` with symmetric antireflexive adjacency."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("an image needs at least one point")
        if len(self.rows) != self.n:
            raise ValueError("adjacency rows do not match the point count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{self.n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"point {u} is adjacent to itself")
            for v in _bits(row):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"adjacency is not symmetric at ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DigitalImage":
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-adjacency ({a}, {b}) is not representable")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) outside labels 0..{n - 1}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, tuple(rows))

    def adjacent(self, a: int, b: int) -> bool:
        return bool((self.rows[a] >> b) & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1)):
                yield u, u + 1 + v

    def relabeled(self, perm: list[int]) -> "DigitalImage":
        """Image with point ``u`` renamed to ``perm[u]``."""
        rows = [0] * self.n
        for u, row in enumerate(self.rows):
            r = 0
            for v in _bits(row):
                r |= 1 << perm[v]
            rows[perm[u]] = r
        return DigitalImage(self.n, tuple(rows))


@dataclass(frozen=True)
class LatticeImage:
    """A finite point set in Z^2 carrying 4- or 8-adjacency."""

    kind: int
    points: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.kind not in (4, 8):
            raise ValueError("adjacency kind must be 4 or 8")
        if not isinstance(self.points, frozenset):
            object.__setattr__(self, "points", frozenset(self.points))
        if not self.points:
            raise ValueError("a lattice image needs at least one point")
        for p in self.points:
            if (
                not isinstance(p, tuple)
                or len(p) != 2
                or not all(isinstance(c, int) for c in p)
            ):
                raise ValueError(f"not an integer coordinate pair: {p!r}")

    def sorted_points(self) -> list[tuple[int, int]]:
        """Points in lexicographic (x, y) order; this fixes the labeling."""
        return sorted(self.points)

    def translated(self, dx: int, dy: int) -> "LatticeImage":
        return LatticeImage(self.kind, frozenset((x + dx, y + dy) for x, y in self.points))


def lattice_to_image(lattice: LatticeImage) -> DigitalImage:
    """The induced abstract image; labels follow lexicographic (x, y) order.
    The cells move to the origin first, so only their extent is bounded."""
    cells = lattice.sorted_points()
    x0, y0 = cells[0][0], min(y for _, y in cells)
    rows = _kernels.lattice_rows(lattice.kind, [(x - x0, y - y0) for x, y in cells])
    return DigitalImage(len(cells), tuple(rows))


def _encode_rows(n: int, rows) -> str:
    """graph6 of trusted adjacency rows; no validation (hot path)."""
    out = bytearray([n + 63])
    acc = 0
    nbits = 0
    for col in range(1, n):
        col_row = rows[col]
        for row in range(col):
            acc = (acc << 1) | ((col_row >> row) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def graph6_encode(image: DigitalImage) -> str:
    """Standard graph6 string of the image under its current labeling.

    Upper-triangle bits in column order, packed into 6-bit chunks with
    offset 63.  Only the short size form (n <= 62) is supported.
    """
    if image.n > GRAPH6_MAX_N:
        raise Graph6Error(
            f"point count {image.n} exceeds the supported graph6 range ({GRAPH6_MAX_N})"
        )
    return _encode_rows(image.n, image.rows)


def graph6_decode(text: str) -> DigitalImage:
    """Decode a graph6 string, validating it byte by byte.

    Accepts the optional ``>>graph6<<`` header.  Rejects out-of-range
    characters, truncated or overlong payloads, and nonzero padding bits,
    reporting the byte offset of the problem.
    """
    base = 0
    data = text
    if data.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        data = data[base:]
    if not data:
        raise Graph6Error("empty graph6 string", offset=base)
    first = ord(data[0])
    if first == 126:
        raise Graph6Error(
            f"extended size form is not supported (n > {GRAPH6_MAX_N})", offset=base
        )
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid size character {data[0]!r}", offset=base)
    n = first - 63
    if n == 0:
        raise Graph6Error("graph6 encodes zero points; images need at least one", offset=base)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    payload = data[1:]
    acc = 0
    for k, char in enumerate(payload):
        if not 63 <= ord(char) <= 126:
            raise Graph6Error(f"invalid payload character {char!r}", offset=base + 1 + k)
        acc = acc << 6 | ord(char) - 63
    if len(payload) < expected:
        raise Graph6Error(
            f"truncated bit vector: expected {expected} payload bytes, found {len(payload)}",
            offset=base + len(data),
        )
    if len(payload) > expected:
        raise Graph6Error("trailing data after bit vector", offset=base + 1 + expected)
    if acc & ((1 << 6 * expected - nbits) - 1):  # padding sits in the last byte
        raise Graph6Error("nonzero padding bits", offset=base + expected)
    rows = [0] * n
    shift = 6 * expected
    for col in range(1, n):
        for row in range(col):
            shift -= 1
            if acc >> shift & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
    return DigitalImage(n, tuple(rows))


def canonical_form(image: DigitalImage) -> str:
    """graph6 code of the canonically relabeled image: equal codes iff
    isomorphic, invariant under any relabeling of the input."""
    if image.n > GRAPH6_MAX_N:
        raise Graph6Error(
            f"point count {image.n} exceeds the supported graph6 range ({GRAPH6_MAX_N})"
        )
    rows = _kernels.canonical_rows(image.n, image.rows)
    return _encode_rows(image.n, rows)


def canonical_image(image: DigitalImage) -> DigitalImage:
    """The canonically relabeled representative of the isomorphism class."""
    rows = _kernels.canonical_rows(image.n, image.rows)
    return DigitalImage(image.n, tuple(rows))


def are_isomorphic(first: DigitalImage, second: DigitalImage) -> bool:
    """True iff some bijection of labels preserves adjacency both ways."""
    if first.n != second.n or first.edge_count != second.edge_count:
        return False
    if sorted(row.bit_count() for row in first.rows) != sorted(
        row.bit_count() for row in second.rows
    ):
        return False
    return _kernels.canonical_rows(first.n, first.rows) == _kernels.canonical_rows(
        second.n, second.rows
    )


def is_connected(image: DigitalImage) -> bool:
    """True iff the adjacency graph is connected (one flood fill)."""
    return _spans(image.rows, (1 << image.n) - 1)


def is_planar(image: DigitalImage) -> bool:
    """Exact planarity of the adjacency graph.

    Two bounds decide first: fewer than 5 points or fewer than 9 edges is
    planar (K5 and K3,3 need both), and more than 3n - 6 edges is not
    (Euler's formula).  Every other graph goes to Brandes' left-right
    planarity test on the adjacency rows, one depth-first root per component.
    """
    n = image.n
    m = image.edge_count
    if n < 5 or m < 9:
        return True
    if m > 3 * n - 6:
        return False
    return _lr_planar(n, image.rows)
