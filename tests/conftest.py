"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the package's optimized
paths: isomorphism by trying all permutations, connectivity by flood fill,
graph generation by iterating all edge subsets.
"""

from __future__ import annotations

import os
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import digitop

settings.register_profile(
    "digitop",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("digitop")


def edges_of(rows) -> set[tuple[int, int]]:
    out = set()
    for a, row in enumerate(rows):
        for b in range(len(rows)):
            if (row >> b) & 1 and a < b:
                out.add((a, b))
    return out


def rows_from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


def permuted_rows(rows, perm) -> tuple[int, ...]:
    """Relabel so that old point ``v`` becomes ``perm[v]``."""
    n = len(rows)
    out = [0] * n
    for a, row in enumerate(rows):
        r = 0
        for b in range(n):
            if (row >> b) & 1:
                r |= 1 << perm[b]
        out[perm[a]] = r
    return tuple(out)


def brute_isomorphic(rows_a, rows_b) -> bool:
    """Permutation-search isomorphism oracle; fine for n <= 8."""
    n = len(rows_a)
    if n != len(rows_b):
        return False
    if sorted(r.bit_count() for r in rows_a) != sorted(r.bit_count() for r in rows_b):
        return False
    target = tuple(rows_b)
    for perm in permutations(range(n)):
        if permuted_rows(rows_a, perm) == target:
            return True
    return False


def flood_connected(rows) -> bool:
    n = len(rows)
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        fresh = rows[v] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            stack.append(low.bit_length() - 1)
    return seen == (1 << n) - 1


def all_labeled_connected(n: int):
    """Every connected labeled graph on n points, as row tuples."""
    pairs = list(combinations(range(n), 2))
    for picked in range(1 << len(pairs)):
        rows = [0] * n
        for k, (a, b) in enumerate(pairs):
            if (picked >> k) & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        if flood_connected(rows):
            yield tuple(rows)


def random_connected_rows(rng, n: int, p: float = 0.4) -> tuple[int, ...]:
    while True:
        rows = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        if flood_connected(rows):
            return tuple(rows)


@pytest.fixture
def rng():
    import random

    return random.Random(0x5EED)


def subprocess_env(**overrides: str) -> dict[str, str]:
    """The current environment for a child interpreter that imports this
    same ``digitop`` package, with ``overrides`` applied."""
    env = dict(os.environ, **overrides)
    package_root = str(Path(digitop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env
