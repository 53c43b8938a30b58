"""Continuity, one-step homotopies of the identity, and classification.

A self-map ``f`` is homotopic to the identity in one step exactly when it is
continuous and moves every point within its closed neighborhood: a two-level
homotopy must keep ``H(x, 0) = x`` and ``H(x, 1) = f(x)`` equal or adjacent
for each fixed ``x``, and each level must itself be continuous.

The classification of a connected image:

* reducible        -- the identity is one-step homotopic to a non-surjection;
* pointed reducible -- some such non-surjection fixes a point;
* rigid            -- the identity is the only map homotopic to the identity.

Rigidity may be decided from one-step maps alone: if the one-step set is just
the identity, induction along the levels of any longer homotopy (each
consecutive pair of levels is a one-step homotopy between continuous maps)
shows every map homotopic to the identity is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _kernels, _pure
from .image import DigitalImage, are_isomorphic


@dataclass(frozen=True)
class SelfMap:
    """A total function from an image's points to itself, as a lookup table."""

    image: DigitalImage
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.image.n:
            raise ValueError("table length does not match the point count")
        for x, v in enumerate(self.table):
            if not 0 <= v < self.image.n:
                raise ValueError(f"table[{x}] = {v} is not a point label")

    def __call__(self, x: int) -> int:
        return self.table[x]

    @property
    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.table))

    @property
    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.image.n

    def fixed_points(self) -> list[int]:
        return [x for x, v in enumerate(self.table) if v == x]


@dataclass(frozen=True)
class Classification:
    """The three boolean verdicts for one connected image."""

    reducible: bool
    pointed_reducible: bool
    rigid: bool

    def __post_init__(self):
        if self.pointed_reducible and not self.reducible:
            raise ValueError("pointed reducible implies reducible")
        if self.rigid and self.reducible:
            raise ValueError("rigid implies irreducible")

    @property
    def irreducible(self) -> bool:
        return not self.reducible

    @property
    def pointed_irreducible(self) -> bool:
        return not self.pointed_reducible

    @property
    def label(self) -> str:
        if self.rigid:
            return "rigid"
        if not self.reducible:
            return "irreducible non-rigid"
        if not self.pointed_reducible:
            return "pointed-irreducible reducible"
        return "pointed-reducible"


def is_continuous(f: SelfMap) -> bool:
    """True iff every adjacent pair maps to an equal or adjacent pair."""
    rows = f.image.rows
    table = f.table
    for a, b in f.image.edges():
        fa, fb = table[a], table[b]
        if fa != fb and not (rows[fa] >> fb) & 1:
            return False
    return True


def candidate_count(image: DigitalImage) -> int:
    """Number of neighbor-constrained tables other than the identity.

    Exactly ``prod(deg(x) + 1) - 1``: the unpruned bound on the one-step
    maps, which the tests compare the brute-force map set against.
    """
    total = 1
    for row in image.rows:
        total *= row.bit_count() + 1
    return total - 1


def one_step_identity_maps(image: DigitalImage) -> Iterator[SelfMap]:
    """All continuous self-maps with ``f(x)`` in the closed neighborhood of x.

    The stream of :func:`digitop._pure.one_step_maps`, one table per map.
    The identity always occurs in the stream.  Raises ValueError at the
    call if the image is disconnected.
    """
    maps = _pure.one_step_maps(image.n, image.rows)
    return (SelfMap(image, tuple(value)) for value, _, _ in maps)


def classify(image: DigitalImage) -> Classification:
    """Classify a connected image in one pruned pass over one-step maps.

    Positive verdicts short-circuit on the first witness; the negative ones
    (irreducible, pointed irreducible, rigid) exhaust the stream.  The
    kernel's walker raises ValueError on a disconnected image.
    """
    reducible, pointed, rigid = _kernels.classify_flags(image.n, image.rows)
    return Classification(reducible=reducible, pointed_reducible=pointed, rigid=rigid)


def _induced_subimage(image: DigitalImage, keep: tuple[int, ...]) -> DigitalImage:
    """Subimage on ``keep`` (ascending labels), with the same adjacency."""
    position = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for i, v in enumerate(keep):
        r = 0
        for u in _pure._bits(image.rows[v]):
            if u in position:
                r |= 1 << position[u]
        rows[i] = r
    return DigitalImage(len(keep), tuple(rows))


def reduce_to_core(image: DigitalImage) -> DigitalImage:
    """Shrink to an irreducible image homotopy equivalent to the input.

    Repeatedly restricts to the induced subimage on the image set of a
    non-surjective one-step map, taking the lexicographically least image
    set so that the result is deterministic.  The kernel's walker raises
    ValueError on a disconnected image; each image set it returns is
    connected, being a continuous image of a connected one.
    """
    current = image
    while True:
        keep = _kernels.min_image_nonsurjective(current.n, current.rows)
        if keep is None:
            return current
        current = _induced_subimage(current, keep)


def homotopy_equivalent(first: DigitalImage, second: DigitalImage) -> bool:
    """Decide homotopy equivalence via irreducible cores.

    Cores are homotopy equivalent to their originals, and irreducible images
    are homotopy equivalent exactly when they are isomorphic, so comparing
    cores up to isomorphism decides the relation.
    """
    return are_isomorphic(reduce_to_core(first), reduce_to_core(second))
