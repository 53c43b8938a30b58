"""Pure-Python kernels for the hot inner loops.

Adjacency is represented as a sequence of integer bitmasks: bit ``v`` of
``rows[u]`` is set iff ``u ~ v``.  All functions here are pure and operate on
``(n, rows)`` pairs; the object layer lives in :mod:`digitop.image`.

``digitop._core`` is a compiled drop-in replacement for this module.  The two
must produce identical outputs: the canonical key is defined as the
lexicographically least adjacency bit string over the refinement search
leaves, and both backends implement the identical refinement, so the selected
canonical labeling is backend independent.  The pure labeler builds each
point's neighbor list once per call; the refinement and the relabeling read
those lists.

The one-step maps are walked in one place, :func:`one_step_maps`; the
classification flags, the least image set and the map stream of
:mod:`digitop.homotopy` all read that stream.  The compiled twin walks the
same maps in the same order with the same state (a point's admissible images
as one mask; each map's image set as one mask and its fixed-point count), and
hands each map to a per-kernel leaf.  Both walkers reject a disconnected
graph, so callers need no connectivity check of their own.  Only the least
image set prunes the walk, by an exact bound (:func:`_least_completion`);
the classification flags and the map stream see every map.  The planarity
test, :func:`_lr_planar`, has no compiled twin.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

__all__ = [
    "canonical_rows",
    "classify_flags",
    "min_image_nonsurjective",
    "lattice_rows",
    "one_step_maps",
]


_MAXN = 62  # the compiled twin's limit, kept here so both backends agree


def _check_size(n: int, rows: list[int]) -> None:
    """The size contract of both backends: 1..62 points, and each of the
    first ``n`` rows within bits ``0..n-1`` (a negative row never is)."""
    if not 1 <= n <= _MAXN:
        raise ValueError(f"point count {n} outside 1..{_MAXN}")
    outside = -1 << n
    for u in range(n):
        if rows[u] & outside:
            raise ValueError(f"row {u} has bits outside 0..{n - 1}")


def _bits(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _lr_planar(n: int, rows) -> bool:
    """Whether the graph is planar, by Brandes' left-right test (*The
    Left-Right Planarity Test*, 2009), without building an embedding.

    Phase 1 orients the graph by depth-first search, one root per component,
    and gives each edge its lowpoint, second lowpoint and nesting depth.
    Phase 2 walks each point's outgoing edges by nesting depth and keeps a
    stack of conflict pairs of return-edge intervals; the graph is planar iff
    no pair ever has to hold a conflict on both sides.  Edges are numbered
    from 1 as they are oriented, and 0 stands for no edge, so a conflict
    pair is a tuple ``(left_low, left_high, right_low, right_high)`` and an
    interval is empty when both its ends are 0.
    """
    height = [-1] * n
    parent = [0] * n  # the tree edge into each point; 0 at a root
    todo = list(rows)  # per point, the neighbors whose edge is not oriented
    out = [[] for _ in range(n)]  # per point, its outgoing edges
    head = [0]  # per edge: target, lowpoint, second lowpoint, nesting depth
    low = [0]
    low2 = [0]
    depth = [0]
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            t = todo[v]
            if t:
                bit = t & -t
                w = bit.bit_length() - 1
                todo[v] = t ^ bit
                todo[w] ^= 1 << v
                f = len(head)
                head.append(w)
                out[v].append(f)
                hv = height[v]
                low2.append(hv)
                depth.append(0)
                if height[w] < 0:  # a tree edge: finish it when w is done
                    low.append(hv)
                    parent[w] = f
                    height[w] = hv + 1
                    stack.append(w)
                    continue
                low.append(height[w])  # a back edge, finished at once
            else:
                stack.pop()
                if not stack:
                    break
                f = parent[v]
                v = stack[-1]
                hv = height[v]
            lf = low[f]
            depth[f] = 2 * lf + (low2[f] < hv)
            e = parent[v]
            if e:
                le = low[e]
                if lf < le:
                    low2[e] = min(le, low2[f])
                    low[e] = lf
                elif lf > le:
                    low2[e] = min(low2[e], lf)
                else:
                    low2[e] = min(low2[e], low2[f])

    for edges in out:
        edges.sort(key=depth.__getitem__)
    ref = [0] * len(head)
    lowedge = [0] * len(head)
    bottom = [0] * len(head)  # the stack height when each edge was entered
    nxt = [0] * n  # per point, the index of its next outgoing edge
    pairs = []
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            i = nxt[v]
            edges = out[v]
            if i < len(edges):
                f = edges[i]
                bottom[f] = len(pairs)
                if parent[head[f]] == f:
                    stack.append(head[f])
                    continue
                lowedge[f] = f
                pairs.append((0, 0, f, f))
            else:
                stack.pop()
                e = parent[v]
                if not e:
                    continue
                # Remove the back edges that return to u, the tail of e.
                u = stack[-1]
                hu = height[u]
                while pairs:
                    ll, lh, rl, rh = pairs[-1]
                    if not (ll or lh):
                        lowest = low[rl]
                    elif not (rl or rh):
                        lowest = low[ll]
                    else:
                        lowest = min(low[ll], low[rl])
                    if lowest != hu:
                        break
                    pairs.pop()
                if pairs:
                    ll, lh, rl, rh = pairs.pop()
                    while lh and head[lh] == u:
                        lh = ref[lh]
                    if not lh and ll:
                        ref[ll] = rl
                        ll = 0
                    while rh and head[rh] == u:
                        rh = ref[rh]
                    if not rh and rl:
                        ref[rl] = ll
                        rl = 0
                    pairs.append((ll, lh, rl, rh))
                f = e
                v = u
                i = nxt[u]
            nxt[v] = i + 1
            lf = low[f]
            if lf >= height[v]:
                continue
            e = parent[v]
            if i == 0:
                lowedge[e] = lowedge[f]
                continue
            # Add the constraints of f: its return edges go to the right...
            le = low[e]
            pll = plh = prl = prh = 0
            while True:
                ql, qh, rl, rh = pairs.pop()
                if ql or qh:
                    ql, qh, rl, rh = rl, rh, ql, qh
                    if ql or qh:
                        return False
                if low[rl] > le:
                    if prl or prh:
                        ref[prl] = rh
                    else:
                        prh = rh
                    prl = rl
                else:
                    ref[rl] = lowedge[e]
                if len(pairs) == bottom[f]:
                    break
            # ...and those of earlier edges that conflict with f to the left.
            while pairs:
                ql, qh, rl, rh = pairs[-1]
                if (rl or rh) and low[rh] > lf:
                    ql, qh, rl, rh = rl, rh, ql, qh
                    if (rl or rh) and low[rh] > lf:
                        return False
                elif not ((ql or qh) and low[qh] > lf):
                    break
                pairs.pop()
                ref[prl] = rh
                if rl:
                    prl = rl
                if pll or plh:
                    ref[pll] = qh
                else:
                    plh = qh
                pll = ql
            if pll or plh or prl or prh:
                pairs.append((pll, plh, prl, prh))
    return True


def _refine(n: int, adj: list[list[int]], partition: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by the multiset of neighbor colors (a vertex's
    color is the index of its cell; ``adj[v]`` lists v's neighbors); sub-cells
    are ordered by signature, so the refined partition depends only on the
    isomorphism type, never on the labeling.
    """
    part = partition
    while True:
        color = [0] * n
        for idx, cell in enumerate(part):
            for v in cell:
                color[v] = idx
        colors = color.__getitem__
        new_part: list[list[int]] = []
        changed = False
        for cell in part:
            if len(cell) == 1:
                new_part.append(cell)
                continue
            groups: dict[bytes, list[int]] = {}
            for v in cell:
                sig = bytes(sorted(map(colors, adj[v])))
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


def _relabeled(adj: list[list[int]], order: list[int], shifts) -> tuple[int, ...]:
    """The rows of the graph relabeled by ``order``: ``order[j]`` is the
    vertex receiving new label ``j``, and bit ``shifts[j]`` of a row marks
    new label ``j``."""
    weight = [0] * len(order)
    for v, shift in zip(order, shifts):
        weight[v] = 1 << shift
    weights = weight.__getitem__
    return tuple([sum(map(weights, adj[v])) for v in order])


def _canonical_order(n: int, rows: list[int], adj: list[list[int]]) -> list[int]:
    best_key: tuple[int, ...] | None = None
    best_order: list[int] | None = None
    # A leaf's key packs each row left to right (new label 0 is the most
    # significant bit), so tuple comparison compares the bit strings.
    key_shifts = range(n - 1, -1, -1)

    def search(partition: list[list[int]]) -> None:
        nonlocal best_key, best_order
        part = _refine(n, adj, partition)
        target = -1
        for idx, cell in enumerate(part):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            order = [cell[0] for cell in part]
            key = _relabeled(adj, order, key_shifts)
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


def canonical_rows(n: int, rows: list[int], /) -> tuple[int, ...]:
    """Canonically relabeled adjacency rows.

    Complete isomorphism invariant: two inputs yield equal tuples iff they
    are isomorphic.  Individualization-refinement search over an equitable
    partition, taking the minimum adjacency bit string over all leaves.
    Each point's neighbor list is built once per call.
    """
    _check_size(n, rows)
    if n == 1:
        return (0,)
    adj = [[u for u in range(n) if rows[v] >> u & 1] for v in range(n)]
    return _relabeled(adj, _canonical_order(n, rows, adj), range(n))


def one_step_maps(
    n: int, rows: list[int], /, prune: Callable[[int, int], bool] | None = None
) -> Iterator[tuple[list[int], int, int]]:
    """Every continuous self-map that moves each point within its closed
    neighborhood, as one pass over a shared assignment table.

    Yields ``(value, image, fixed)`` at each map: ``value[x]`` is the image
    of point ``x`` (the same list every time, overwritten as the walk goes
    on), ``image`` the image set as a mask and ``fixed`` the number of fixed
    points.  Points are assigned in breadth-first order from label 0, so
    each new point is adjacent to an assigned one, and a partial assignment
    is dropped as soon as an assigned adjacent pair maps to a non-adjacent,
    non-equal pair.  The identity always occurs.

    ``prune(placed, reach)``, if given, is asked before each descent: with
    ``placed`` the image set of the positions assigned so far and ``reach``
    the union of N[x] over the points still to assign, every map below has
    an image set between ``placed`` and ``placed | reach``.  A true answer
    skips those maps; the rest still come in the same order.

    Raises ValueError at the call, not at the first ``next``, if the point
    count is out of range or the graph is disconnected.
    """
    _check_size(n, rows)
    order = [0]
    visited = 1
    for v in order:  # breadth-first: the order grows while it is read
        fresh = rows[v] & ~visited
        visited |= fresh
        order.extend(_bits(fresh))
    if len(order) != n:
        raise ValueError("adjacency graph is disconnected")
    return _walk(n, rows, order, prune)


def _walk(
    n: int, rows: list[int], order: list[int], prune: Callable[[int, int], bool] | None
) -> Iterator[tuple[list[int], int, int]]:
    # x may go to v exactly when v is in N[x] and in N[value[u]] for every
    # assigned neighbor u, so a position's admissible images are one mask.
    closed = [row | 1 << v for v, row in enumerate(rows)]
    earlier = [[u for u in order[:pos] if rows[x] >> u & 1] for pos, x in enumerate(order)]
    reach = [0] * (n + 1)  # per position, N[x] over it and every later one
    for pos in range(n - 1, -1, -1):
        reach[pos] = reach[pos + 1] | closed[order[pos]]
    pending = [0] * n  # per position, the admissible images not yet tried
    pending[0] = closed[order[0]]
    image = [0] * n  # per position, the image set of the positions before it
    fixed = [0] * n  # per position, how many positions before it are fixed
    value = [0] * n
    last = n - 1
    pos = 0
    while True:
        x = order[pos]
        allowed = pending[pos]
        # Most steps are leaves: yield the whole last mask in one loop rather
        # than one pass of the outer loop per map.
        if pos == last:
            below = image[pos]
            held = fixed[pos]
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                v = low.bit_length() - 1
                value[x] = v
                yield value, below | low, held + (v == x)
        if not allowed:
            if not pos:
                return
            pos -= 1
            continue
        low = allowed & -allowed
        pending[pos] = allowed ^ low
        placed = image[pos] | low
        if prune is not None and prune(placed, reach[pos + 1]):
            continue
        v = low.bit_length() - 1
        value[x] = v
        image[pos + 1] = placed
        fixed[pos + 1] = fixed[pos] + (v == x)
        pos += 1
        allowed = closed[order[pos]]
        for u in earlier[pos]:
            allowed &= closed[value[u]]
        pending[pos] = allowed


def classify_flags(n: int, rows: list[int], /) -> tuple[bool, bool, bool]:
    """(reducible, pointed_reducible, rigid) for a connected image.

    One pass over :func:`one_step_maps`.  Stops at the first pointed
    non-surjection, which settles all three verdicts; the negative verdicts
    require exhausting the stream.
    """
    maps = one_step_maps(n, rows)  # checks n before the shift below
    full = (1 << n) - 1
    reducible = False
    non_identity = False
    for _, image, fixed in maps:
        if image != full:
            if fixed:
                return True, True, False
            reducible = True
        if fixed < n:
            non_identity = True
    return reducible, False, not non_identity


def _image_less(a: int, b: int) -> bool:
    """Whether image set ``a`` comes before ``b`` as an ascending label tuple.

    Below the lowest differing label d the two agree; the set holding d
    comes first unless it ends there while the other goes on.
    """
    if a == b:
        return False
    d = ((a ^ b) & -(a ^ b)).bit_length() - 1
    return b >> d != 0 if a >> d & 1 else a >> d == 0


def _least_completion(placed: int, reach: int) -> int:
    """The least image set, as an ascending label tuple, of any S with
    ``placed <= S <= placed | reach`` (``placed`` not empty).

    It is every reachable label up to max P, for P = ``placed``.  Below max P
    each added label makes the tuple smaller: the two sets first differ at
    that label, and both go on to max P.  Above max P the part up to max P
    is a prefix, so each added label makes the tuple larger.
    """
    return (placed | reach) & ((1 << placed.bit_length()) - 1)


def min_image_nonsurjective(n: int, rows: list[int], /) -> tuple[int, ...] | None:
    """Lexicographically least image set over non-surjective one-step maps.

    Image sets are compared as ascending label tuples.  Returns None when
    every continuous one-step map is surjective (the image is irreducible).

    Branch and bound over :func:`one_step_maps`: every map below a partial
    assignment has an image set S with P <= S <= P | R (P the labels placed,
    R the closed neighborhoods still to assign), and none of them comes
    before :func:`_least_completion` of P and R.  So once that bound does not
    come before the best image set found, the subtree is skipped, and the
    result is the same as over every map.
    """
    best = 0  # no non-surjection seen yet: an image set is never empty

    def beaten(placed: int, reach: int) -> bool:
        return best != 0 and not _image_less(_least_completion(placed, reach), best)

    maps = one_step_maps(n, rows, beaten)  # checks n before the shift below
    full = (1 << n) - 1
    for _, image, _ in maps:
        if image != full and (not best or _image_less(image, best)):
            best = image
    return tuple(_bits(best)) if best else None


def lattice_rows(kind: int, cells: list[tuple[int, int]], /) -> list[int]:
    """Adjacency rows induced on a list of grid cells.

    ``kind`` 4: orthogonal unit steps only; ``kind`` 8: both coordinates
    differ by at most 1.  Cell order defines the labels.  Both backends take
    at most 62 cells, each coordinate within ``-2**62..2**62-1`` (the
    compiled twin's exact range), and raise the same ValueError outside.
    """
    n = len(cells)
    if n > _MAXN:
        raise ValueError(f"cell count {n} outside 1..{_MAXN}")
    flat = [v for cell in cells for v in cell]
    if min(flat, default=0) < -(1 << 62) or max(flat, default=0) >= 1 << 62:
        raise ValueError("cell coordinate outside -2**62..2**62-1")
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
