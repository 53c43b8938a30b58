"""Image types, validation, connectivity, and planarity.

Planarity goes through two independent oracles here.  One is a minor
search: a graph is planar iff it has no complete-5 or complete-3-3 minor,
and minors are found by breadth-first search over all edge contractions with
a subgraph check at each stage (contracting the branch sets of any minor
exposes it as a subgraph).  The other is networkx's ``check_planarity``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

import digitop
from digitop import (
    DigitalImage,
    LatticeImage,
    enumerate_abstract_connected,
    graph6_decode,
    is_connected,
    is_planar,
    lattice_to_image,
)
from digitop._pure import _lr_planar, canonical_rows

from .conftest import (
    all_labeled_connected,
    flood_connected,
    random_connected_rows,
    subprocess_env,
)


# ---------------------------------------------------------------------------
# DigitalImage basics


def test_rejects_empty():
    with pytest.raises(ValueError):
        DigitalImage(0, ())


def test_rejects_self_adjacency():
    with pytest.raises(ValueError):
        DigitalImage(2, (1, 2))


def test_rejects_asymmetry():
    with pytest.raises(ValueError):
        DigitalImage(2, (2, 0))


def test_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        DigitalImage(2, (4, 0))


def test_rejects_bad_row_count():
    with pytest.raises(ValueError):
        DigitalImage(3, (0, 0))


def test_from_edges_and_accessors():
    image = DigitalImage.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert image.edge_count == 3
    assert image.degree(1) == 2
    assert image.neighbors(1) == [0, 2]
    assert image.adjacent(2, 3) and not image.adjacent(0, 3)
    assert sorted(image.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        DigitalImage.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        DigitalImage.from_edges(3, [(0, 3)])


def test_relabeled_is_an_isomorphism(rng):
    for _ in range(20):
        n = rng.randint(2, 8)
        image = DigitalImage(n, random_connected_rows(rng, n))
        perm = rng.sample(range(n), n)
        moved = image.relabeled(perm)
        for a in range(n):
            for b in range(n):
                assert image.adjacent(a, b) == moved.adjacent(perm[a], perm[b])


def test_is_connected_matches_flood_fill(rng):
    for _ in range(60):
        n = rng.randint(1, 9)
        rows = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.25:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        image = DigitalImage(n, tuple(rows))
        assert is_connected(image) == flood_connected(rows)


# ---------------------------------------------------------------------------
# LatticeImage


def test_lattice_requires_kind_and_points():
    with pytest.raises(ValueError):
        LatticeImage(5, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        LatticeImage(4, frozenset())


def test_lattice_sorted_points_fix_labels():
    lattice = LatticeImage(4, frozenset({(1, 0), (0, 0), (0, 1)}))
    assert lattice.sorted_points() == [(0, 0), (0, 1), (1, 0)]
    image = lattice_to_image(lattice)
    # (0,0) is adjacent to both; (0,1) and (1,0) are not adjacent under kind 4
    assert image.adjacent(0, 1) and image.adjacent(0, 2) and not image.adjacent(1, 2)


def test_lattice_translated_preserves_structure():
    lattice = LatticeImage(8, frozenset({(0, 0), (1, 1), (2, 0)}))
    moved = lattice.translated(5, -3)
    assert moved.points == frozenset({(5, -3), (6, -2), (7, -3)})
    assert lattice_to_image(moved) == lattice_to_image(lattice)


def test_adjacency_kinds_differ_on_diagonals():
    points = frozenset({(0, 0), (1, 1)})
    assert lattice_to_image(LatticeImage(4, points)).edge_count == 0
    assert lattice_to_image(LatticeImage(8, points)).edge_count == 1


# ---------------------------------------------------------------------------
# Planarity, with a minor-search oracle


def _has_k5_or_k33_subgraph(rows) -> bool:
    n = len(rows)
    for picked in combinations(range(n), 5):
        if all(rows[a] >> b & 1 for a, b in combinations(picked, 2)):
            return True
    for left in combinations(range(n), 3):
        rest = [v for v in range(n) if v not in left]
        for right in combinations(rest, 3):
            if all(rows[a] >> b & 1 for a in left for b in right):
                return True
    return False


def _contractions(rows):
    n = len(rows)
    for a in range(n):
        for b in range(a + 1, n):
            if not rows[a] >> b & 1:
                continue
            merged = list(rows)
            merged[a] = (rows[a] | rows[b]) & ~(1 << a) & ~(1 << b)
            for v in range(n):
                if v != b and v != a and merged[v] >> b & 1:
                    merged[v] = (merged[v] & ~(1 << b)) | (1 << a)
            keep = [v for v in range(n) if v != b]
            index = {v: i for i, v in enumerate(keep)}
            out = [0] * (n - 1)
            for v in keep:
                r = 0
                remaining = merged[v]
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    r |= 1 << index[low.bit_length() - 1]
                out[index[v]] = r
            yield tuple(out)


def _planar_by_minor_search(rows) -> bool:
    frontier = {tuple(rows)}
    seen = set()
    while frontier:
        level = set()
        for state in frontier:
            code = canonical_rows(len(state), list(state))
            if code in seen:
                continue
            seen.add(code)
            if _has_k5_or_k33_subgraph(state):
                return False
            if len(state) > 5:
                level.update(_contractions(state))
        frontier = level
    return True


def test_planarity_exhaustive_small():
    seen = set()
    for n in range(1, 7):
        for rows in all_labeled_connected(n) if n > 1 else [(0,)]:
            code = canonical_rows(n, list(rows))
            if code in seen:
                continue
            seen.add(code)
            assert is_planar(DigitalImage(n, tuple(rows))) == _planar_by_minor_search(rows)


def test_planarity_sampled_larger(rng):
    for n in (7, 8):
        for _ in range(25):
            rows = random_connected_rows(rng, n, p=0.45)
            image = DigitalImage(n, rows)
            assert is_planar(image) == _planar_by_minor_search(rows)


def test_known_planarity_facts():
    k5 = DigitalImage.from_edges(5, list(combinations(range(5), 2)))
    assert not is_planar(k5)
    k33 = DigitalImage.from_edges(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    assert not is_planar(k33)
    k4 = DigitalImage.from_edges(4, list(combinations(range(4), 2)))
    assert is_planar(k4)


def _planar_by_networkx(image: DigitalImage) -> bool:
    g = nx.Graph()
    g.add_nodes_from(range(image.n))
    g.add_edges_from(image.edges())
    return nx.check_planarity(g, counterexample=False)[0]


def test_planarity_matches_networkx_on_every_class_to_8():
    # The left-right test is also run without the bounds, on every class.
    for n in range(1, 9):
        for code in enumerate_abstract_connected(n):
            image = graph6_decode(code)
            expected = _planar_by_networkx(image)
            assert is_planar(image) == expected, code
            assert _lr_planar(n, image.rows) == expected, code


def test_planarity_matches_networkx_on_random_graphs(rng):
    # Edge counts from none to three past 3n - 6, connected or not.
    for _ in range(2000):
        n = rng.randint(1, 14)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(0, min(len(pairs), max(0, 3 * n - 6) + 3))
        image = DigitalImage.from_edges(n, rng.sample(pairs, m))
        expected = _planar_by_networkx(image)
        assert is_planar(image) == expected, image.rows
        assert _lr_planar(n, image.rows) == expected, image.rows


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return DigitalImage.from_edges(10, outer + spokes + inner)


def _icosahedron():
    # Apex 0, rings 1..5 and 6..10, apex 11; each ring point meets two below.
    edges = []
    for i in range(5):
        a, b = 1 + i, 1 + (i + 1) % 5
        c, d = 6 + i, 6 + (i + 1) % 5
        edges += [(0, a), (a, b), (a, c), (a, d), (c, d), (c, 11)]
    return DigitalImage.from_edges(12, edges)


def _subdivided_k33():
    edges = []
    for k, (a, b) in enumerate((a, b) for a in (0, 1, 2) for b in (3, 4, 5)):
        edges += [(a, 6 + k), (6 + k, b)]
    return DigitalImage.from_edges(15, edges)


def _k5_and_isolated_points():
    return DigitalImage.from_edges(8, list(combinations(range(5), 2)))


def _forest():
    # A path on 0..6 with a branch at 3, and a star centred at 8.
    path = [(i, i + 1) for i in range(6)] + [(3, 7)]
    star = [(8, j) for j in range(9, 14)]
    return DigitalImage.from_edges(14, path + star)


@pytest.mark.parametrize(
    "build, planar, bounded",
    [
        (_petersen, False, False),
        (_icosahedron, True, False),
        (_subdivided_k33, False, False),
        (_k5_and_isolated_points, False, False),
        (lambda: DigitalImage(1, (0,)), True, True),
        (_forest, True, False),
    ],
    ids=["petersen", "icosahedron", "subdivided-k33", "k5-and-isolated", "point", "forest"],
)
def test_planarity_edge_cases(build, planar, bounded, rng):
    image = build()
    n, m = image.n, image.edge_count
    # "bounded" cases are decided before the left-right test is reached.
    assert (n < 5 or m < 9 or m > 3 * n - 6) == bounded
    for _ in range(5):
        assert is_planar(image) == planar
        assert _lr_planar(n, image.rows) == planar
        image = image.relabeled(rng.sample(range(n), n))


def test_public_api_matches_readme():
    # Every exported name resolves and is listed once, and the README's
    # library import block runs.
    assert len(digitop.__all__) == len(set(digitop.__all__))
    for name in digitop.__all__:
        assert hasattr(digitop, name), name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(block, {})


def test_import_does_not_load_networkx():
    probe = "import sys, digitop, digitop.catalog; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
        check=True,
    )
    assert proc.stdout.strip() == "False"
