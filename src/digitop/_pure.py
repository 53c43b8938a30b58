"""Pure-Python kernels for the hot inner loops.

Adjacency is represented as a list of integer bitmasks: bit ``v`` of
``rows[u]`` is set iff ``u ~ v``.  All functions here are pure and operate on
``(n, rows)`` pairs; the object layer lives in :mod:`digitop.image`.

``digitop._core`` is a compiled drop-in replacement for this module.  The two
must produce identical outputs: the canonical key is defined as the
lexicographically least adjacency bit string over the refinement search
leaves, and both backends implement the identical refinement, so the selected
canonical labeling is backend independent.
"""

from __future__ import annotations

__all__ = [
    "canonical_rows",
    "classify_flags",
    "min_image_nonsurjective",
    "lattice_rows",
    "bfs_order",
    "dfs_setup",
]


_MAXN = 62  # the compiled twin's limit, kept here so both backends agree


def _check_points(n: int) -> None:
    if not 1 <= n <= _MAXN:
        raise ValueError(f"point count {n} outside 1..{_MAXN}")


def _bits(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(n: int, rows: list[int], partition: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by the multiset of neighbor colors (a vertex's
    color is the index of its cell); sub-cells are ordered by signature, so
    the refined partition depends only on the isomorphism type, never on the
    labeling.
    """
    part = partition
    while True:
        color = [0] * n
        for idx, cell in enumerate(part):
            for v in cell:
                color[v] = idx
        new_part: list[list[int]] = []
        changed = False
        for cell in part:
            if len(cell) == 1:
                new_part.append(cell)
                continue
            groups: dict[bytes, list[int]] = {}
            for v in cell:
                sig = bytes(sorted(color[u] for u in _bits(rows[v])))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_part.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_part.append(groups[sig])
        if not changed:
            return part
        part = new_part


def _is_twin_cell(rows: list[int], cell: list[int]) -> bool:
    """True if every pair in the cell is a (true or false) twin.

    Any permutation inside such a cell is an automorphism, so the search may
    fix an arbitrary order instead of branching.
    """
    cell_mask = 0
    for v in cell:
        cell_mask |= 1 << v
    v0 = cell[0]
    outside = rows[v0] & ~cell_mask
    inside0 = rows[v0] & cell_mask
    if inside0 == cell_mask ^ (1 << v0):  # pairwise adjacent
        return all(
            rows[v] & ~cell_mask == outside
            and rows[v] & cell_mask == cell_mask ^ (1 << v)
            for v in cell[1:]
        )
    if inside0 == 0:  # pairwise non-adjacent
        return all(
            rows[v] & ~cell_mask == outside and rows[v] & cell_mask == 0
            for v in cell[1:]
        )
    return False


def _leaf_key(n: int, rows: list[int], order: list[int]) -> tuple[int, ...]:
    """Row-major adjacency bit string of the graph relabeled by ``order``.

    ``order[j]`` is the vertex receiving new label ``j``.  Row ``j`` packs
    bits left to right (bit for new label 0 is the most significant), so
    tuple comparison is lexicographic comparison of the bit string.
    """
    position = [0] * n
    for j, v in enumerate(order):
        position[v] = j
    key = []
    for v in order:
        r = 0
        for u in _bits(rows[v]):
            r |= 1 << (n - 1 - position[u])
        key.append(r)
    return tuple(key)


def _canonical_order(n: int, rows: list[int]) -> list[int]:
    best_key: tuple[int, ...] | None = None
    best_order: list[int] | None = None

    def search(partition: list[list[int]]) -> None:
        nonlocal best_key, best_order
        part = _refine(n, rows, partition)
        target = -1
        for idx, cell in enumerate(part):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            order = [cell[0] for cell in part]
            key = _leaf_key(n, rows, order)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
            return
        cell = part[target]
        head = part[:target]
        tail = part[target + 1 :]
        if _is_twin_cell(rows, cell):
            search(head + [[v] for v in cell] + tail)
            return
        for v in cell:
            rest = [u for u in cell if u != v]
            search(head + [[v], rest] + tail)

    search([list(range(n))])
    assert best_order is not None
    return best_order


def canonical_rows(n: int, rows: list[int]) -> tuple[int, ...]:
    """Canonically relabeled adjacency rows.

    Complete isomorphism invariant: two inputs yield equal tuples iff they
    are isomorphic.  Individualization-refinement search over an equitable
    partition, taking the minimum adjacency bit string over all leaves.
    """
    _check_points(n)
    if n == 1:
        return (0,)
    order = _canonical_order(n, rows)
    position = [0] * n
    for j, v in enumerate(order):
        position[v] = j
    out = [0] * n
    for j, v in enumerate(order):
        r = 0
        for u in _bits(rows[v]):
            r |= 1 << position[u]
        out[j] = r
    return tuple(out)


def bfs_order(n: int, rows: list[int]) -> list[int]:
    """Breadth-first vertex order from label 0 (neighbors ascending).

    Raises ValueError if the graph is disconnected.
    """
    visited = 1
    order = [0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        fresh = rows[v] & ~visited
        visited |= fresh
        order.extend(_bits(fresh))
    if len(order) != n:
        raise ValueError("adjacency graph is disconnected")
    return order


def dfs_setup(n: int, rows: list[int]):
    """Assignment order and per-position data for the one-step map search.

    Points are assigned in BFS order from label 0 so that each new point is
    adjacent to an already-assigned one, which makes continuity violations
    surface as early as possible.  Returns ``(order, candidates, earlier)``
    where ``candidates[pos]`` is the closed neighborhood of the point at
    ``pos`` (ascending) and ``earlier[pos]`` lists its already-assigned
    neighbors.
    """
    order = bfs_order(n, rows)
    candidates = []
    earlier = []
    for pos, x in enumerate(order):
        candidates.append(list(_bits(rows[x] | (1 << x))))
        earlier.append([u for u in order[:pos] if (rows[x] >> u) & 1])
    return order, candidates, earlier


def classify_flags(n: int, rows: list[int]) -> tuple[bool, bool, bool]:
    """(reducible, pointed_reducible, rigid) for a connected image.

    Single depth-first pass over all continuous self-maps that move each
    point within its closed neighborhood.  A partial assignment is abandoned
    as soon as an already-assigned adjacent pair maps to a non-adjacent,
    non-equal pair.  Stops early once all three verdicts are determined; the
    negative verdicts require exhausting the stream.
    """
    _check_points(n)
    order, candidates, earlier = dfs_setup(n, rows)
    value = [0] * n
    hits = [0] * n
    covered = 0
    fixed = 0
    reducible = False
    pointed = False
    non_identity = False

    def walk(pos: int) -> bool:
        nonlocal covered, fixed, reducible, pointed, non_identity
        if pos == n:
            if covered < n:
                reducible = True
                if fixed > 0:
                    pointed = True
            if fixed < n:
                non_identity = True
            return pointed and non_identity
        x = order[pos]
        for v in candidates[pos]:
            row_v = rows[v]
            ok = True
            for u in earlier[pos]:
                fu = value[u]
                if v != fu and not (row_v >> fu) & 1:
                    ok = False
                    break
            if not ok:
                continue
            value[x] = v
            hits[v] += 1
            if hits[v] == 1:
                covered += 1
            if v == x:
                fixed += 1
            if walk(pos + 1):
                return True
            hits[v] -= 1
            if hits[v] == 0:
                covered -= 1
            if v == x:
                fixed -= 1
        return False

    walk(0)
    return reducible, pointed, not non_identity


def min_image_nonsurjective(n: int, rows: list[int]) -> tuple[int, ...] | None:
    """Lexicographically least image set over non-surjective one-step maps.

    Image sets are compared as ascending label tuples.  Returns None when
    every continuous one-step map is surjective (the image is irreducible).
    """
    _check_points(n)
    order, candidates, earlier = dfs_setup(n, rows)
    value = [0] * n
    hits = [0] * n
    covered = 0
    best: tuple[int, ...] | None = None

    def walk(pos: int) -> None:
        nonlocal covered, best
        if pos == n:
            if covered < n:
                image_set = tuple(v for v in range(n) if hits[v])
                if best is None or image_set < best:
                    best = image_set
            return
        x = order[pos]
        for v in candidates[pos]:
            row_v = rows[v]
            ok = True
            for u in earlier[pos]:
                fu = value[u]
                if v != fu and not (row_v >> fu) & 1:
                    ok = False
                    break
            if not ok:
                continue
            value[x] = v
            hits[v] += 1
            if hits[v] == 1:
                covered += 1
            walk(pos + 1)
            hits[v] -= 1
            if hits[v] == 0:
                covered -= 1

    walk(0)
    return best


def lattice_rows(kind: int, cells: list[tuple[int, int]]) -> list[int]:
    """Adjacency rows induced on a list of grid cells.

    ``kind`` 4: orthogonal unit steps only; ``kind`` 8: both coordinates
    differ by at most 1.  Cell order defines the labels.
    """
    n = len(cells)
    if n > _MAXN:
        raise ValueError(f"cell count {n} outside 1..{_MAXN}")
    rows = [0] * n
    for i in range(n):
        xi, yi = cells[i]
        for j in range(i + 1, n):
            xj, yj = cells[j]
            dx = xi - xj
            dy = yi - yj
            if kind == 4:
                adjacent = dx * dx + dy * dy == 1
            else:
                adjacent = -1 <= dx <= 1 and -1 <= dy <= 1
            if adjacent:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows
