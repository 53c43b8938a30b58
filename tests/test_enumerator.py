"""Cell-set and abstract-image generation against brute-force oracles.

The independent oracles here avoid the inductive growth path entirely:
connected cell sets are re-derived from every n-subset of an n-by-n box
(a normalized connected n-cell set always fits in that box), and abstract
classes are re-derived from every labeled connected adjacency matrix.
"""

import itertools
import random
from pathlib import Path

import pytest

from digitop import _kernels
from digitop._kernels import canonical_rows, lattice_rows
from digitop.enumerator import (
    CellSet,
    DedupStore,
    abstract_children,
    enumerate_abstract_connected,
    enumerate_fixed_polyominoes,
    enumerate_fixed_polyplets,
    enumerate_lattice_images,
    grow_masks,
    merge_sorted_items,
    read_shard_files,
    shard_files_exist,
    write_shard_files,
)
from digitop.image import (
    DigitalImage,
    LatticeImage,
    _encode_rows,
    canonical_form,
    lattice_to_image,
)

from .conftest import all_labeled_connected

_STEPS = {
    4: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    8: tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)),
}


def _cells_connected(kind, cells):
    todo = [cells[0]]
    seen = {cells[0]}
    members = set(cells)
    while todo:
        x, y = todo.pop()
        for dx, dy in _STEPS[kind]:
            step = (x + dx, y + dy)
            if step in members and step not in seen:
                seen.add(step)
                todo.append(step)
    return len(seen) == len(cells)


def _box_connected_sets(kind, n):
    """Every translation-normalized connected n-cell set, by box brute force."""
    box = [(x, y) for y in range(n) for x in range(n)]
    out = set()
    for combo in itertools.combinations(box, n):
        if _cells_connected(kind, combo):
            dx = min(x for x, _ in combo)
            dy = min(y for _, y in combo)
            out.add(frozenset((x - dx, y - dy) for x, y in combo))
    return out


def _code_of_cells(kind, cells):
    ordered = sorted(cells)
    rows = lattice_rows(kind, ordered)
    return _encode_rows(len(ordered), canonical_rows(len(ordered), rows))


# ---------------------------------------------------------------------------
# CellSet


def test_cellset_normalization_and_parsing():
    raw = [(3, 5), (4, 5), (4, 6)]
    cs = CellSet.from_points(raw)
    assert cs.sorted_cells() == [(0, 0), (1, 0), (1, 1)]
    assert cs.as_string() == "0,0;1,0;1,1"
    assert CellSet.parse(cs.as_string()) == cs
    assert CellSet.parse("2,0;0,1").sorted_cells() == [(0, 1), (2, 0)]
    with pytest.raises(ValueError):
        CellSet(frozenset({(1, 1), (2, 1)}))
    with pytest.raises(ValueError):
        CellSet(frozenset())


# ---------------------------------------------------------------------------
# fixed cell-set counts and box oracles


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 2), (3, 6), (4, 19), (5, 63), (6, 216), (7, 760), (8, 2725), (9, 9910), (10, 36446)],
)
def test_fixed_polyomino_counts(n, count):
    assert len(enumerate_fixed_polyominoes(n)) == count


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 4), (3, 20), (4, 110), (5, 638), (6, 3832), (7, 23592), (8, 147941)],
)
def test_fixed_polyplet_counts(n, count):
    assert len(enumerate_fixed_polyplets(n)) == count


@pytest.mark.parametrize("kind", [4, 8])
@pytest.mark.parametrize("n", range(1, 6))
def test_cell_sets_match_box_oracle(kind, n):
    grown = enumerate_fixed_polyominoes(n) if kind == 4 else enumerate_fixed_polyplets(n)
    assert {cs.cells for cs in grown} == _box_connected_sets(kind, n)
    listed = [cs.sorted_cells() for cs in grown]
    assert listed == sorted(listed)


def test_grow_masks_deterministic_and_sharded():
    masks = [1]
    for _ in range(4):
        masks = grow_masks(4, masks)
    again = [1]
    for _ in range(4):
        again = grow_masks(4, again)
    assert masks == again
    assert masks == sorted(masks)
    evens = grow_masks(4, masks, selector=lambda i: i % 2 == 0)
    odds = grow_masks(4, masks, selector=lambda i: i % 2 == 1)
    assert sorted(set(evens) | set(odds)) == grow_masks(4, masks)


def test_cell_count_bounds():
    with pytest.raises(ValueError):
        enumerate_fixed_polyominoes(0)
    with pytest.raises(ValueError):
        enumerate_fixed_polyplets(15)
    with pytest.raises(ValueError):
        enumerate_lattice_images(5, 3)


# ---------------------------------------------------------------------------
# abstract classes


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853), (8, 11117)])
def test_abstract_class_counts(n, count):
    assert len(enumerate_abstract_connected(n)) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_abstract_classes_match_labeled_oracle(n):
    """Exact canonical-code set equality against all labeled connected graphs."""
    grown = {cls.canonical.code for cls in enumerate_abstract_connected(n)}
    brute = {
        canonical_form(DigitalImage(n, rows)).code for rows in all_labeled_connected(n)
    }
    assert grown == brute


def test_abstract_children_label_only_deletion_candidates(monkeypatch):
    """From the 853 classes on 7 points, only the children that pass the
    deletion test reach canonical labeling (108,331 children in all), and
    they still yield every class on 8 points."""
    parents = [cls.canonical.code for cls in enumerate_abstract_connected(7)]
    assert len(parents) == 853
    expected = [cls.canonical.code for cls in enumerate_abstract_connected(8)]

    labelings = 0
    label = _kernels.canonical_rows

    def counted(n, rows):
        nonlocal labelings
        labelings += 1
        return label(n, rows)

    monkeypatch.setattr(_kernels, "canonical_rows", counted)
    codes = abstract_children(parents, DedupStore()).sorted_codes()
    assert labelings == 19652
    assert len(codes) == 11117
    assert codes == expected


def test_abstract_classes_are_sorted_and_canonical():
    classes = enumerate_abstract_connected(5)
    codes = [cls.canonical.code for cls in classes]
    assert codes == sorted(codes)
    for cls in classes:
        assert cls.family == "abstract" and cls.n == 5
        assert canonical_form(cls.representative).code == cls.canonical.code
        assert cls.witness is None


# ---------------------------------------------------------------------------
# lattice classes


@pytest.mark.parametrize("kind,counts", [(4, (1, 1, 1, 3, 4)), (8, (1, 1, 2, 6, 15))])
def test_lattice_class_counts_small(kind, counts):
    for n, count in enumerate(counts, start=1):
        assert len(enumerate_lattice_images(kind, n)) == count


@pytest.mark.parametrize("kind", [4, 8])
@pytest.mark.parametrize("n", range(1, 6))
def test_lattice_classes_match_box_oracle(kind, n):
    """Class codes and least witnesses re-derived from box subsets."""
    by_code = {}
    for cells in _box_connected_sets(kind, n):
        ordered = tuple(sorted(cells))
        code = _code_of_cells(kind, cells)
        prior = by_code.get(code)
        if prior is None or ordered < prior:
            by_code[code] = ordered
    classes = enumerate_lattice_images(kind, n)
    assert {cls.canonical.code for cls in classes} == set(by_code)
    for cls in classes:
        assert tuple(cls.witness.sorted_cells()) == by_code[cls.canonical.code]


@pytest.mark.parametrize("kind", [4, 8])
def test_lattice_witness_reproduces_code(kind):
    for n in (4, 6):
        for cls in enumerate_lattice_images(kind, n):
            image = lattice_to_image(LatticeImage(kind, frozenset(cls.witness.cells)))
            assert canonical_form(image).code == cls.canonical.code
            assert cls.family == f"adj{kind}" and cls.n == n


def test_straight_and_bent_triominoes_coincide():
    straight = lattice_to_image(LatticeImage(4, frozenset({(0, 0), (1, 0), (2, 0)})))
    bent = lattice_to_image(LatticeImage(4, frozenset({(0, 0), (1, 0), (1, 1)})))
    assert canonical_form(straight) == canonical_form(bent)
    assert len(enumerate_lattice_images(4, 3)) == 1


# ---------------------------------------------------------------------------
# deduplication store


def test_dedup_store_keeps_least_witness():
    store = DedupStore()
    store.add("Bw", ((0, 0), (1, 0), (2, 0)))
    store.add("Bw", ((0, 0), (1, 0), (1, 1)))
    store.add("A_", None)
    store.add("A_", ((0, 0), (1, 0)))
    assert store.sorted_items() == [
        ("A_", ((0, 0), (1, 0))),
        ("Bw", ((0, 0), (1, 0), (1, 1))),
    ]


def test_dedup_store_spills_and_merges(tmp_path):
    rng = random.Random(20250825)
    items = []
    for i in range(400):
        code = f"code{i % 97:03d}"
        witness = ((i % 7, i % 5), (i % 3 + 1, i % 11))
        items.append((code, tuple(sorted(set(witness)))))
    rng.shuffle(items)

    plain = DedupStore()
    spilling = DedupStore(mem_budget_mb=0.002, tmp_dir=str(tmp_path))
    for code, witness in items:
        plain.add(code, witness)
        spilling.add(code, witness)
    assert spilling._runs  # the tiny budget must actually force spills
    assert spilling.sorted_items() == plain.sorted_items()
    assert not list(tmp_path.glob("digitop-run-*")), "spill runs should be cleaned up"


def test_merge_sorted_items_combines_streams():
    left = iter([("a", ((1, 1),)), ("c", None)])
    right = iter([("a", ((0, 1),)), ("b", ((2, 2),)), ("c", ((3, 3),))])
    merged = list(merge_sorted_items([left, right]))
    assert merged == [("a", ((0, 1),)), ("b", ((2, 2),)), ("c", ((3, 3),))]


# ---------------------------------------------------------------------------
# shard slice files


def test_shard_files_round_trip(tmp_path):
    directory = Path(tmp_path) / "shards"
    items = [
        ("A_", ((0, 0), (1, 0))),
        ("Bw", ((0, 0), (1, 0), (1, 1))),
    ]
    assert not shard_files_exist(directory, "adj4", 3, 1, 2)
    paths = write_shard_files(directory, "adj4", 3, 1, 2, items)
    assert [p.name for p in paths] == ["adj4_n03.shard1of2.g6", "adj4_n03.shard1of2.cells"]
    assert shard_files_exist(directory, "adj4", 3, 1, 2)
    assert list(read_shard_files(directory, "adj4", 3, 1, 2)) == items

    bare = [("Bw", None)]
    paths = write_shard_files(directory, "abstract", 3, 0, 4, bare)
    assert [p.name for p in paths] == ["abstract_n03.shard0of4.g6"]
    assert shard_files_exist(directory, "abstract", 3, 0, 4)
    assert list(read_shard_files(directory, "abstract", 3, 0, 4)) == bare


def test_shard_files_detect_length_mismatch(tmp_path):
    directory = Path(tmp_path)
    write_shard_files(directory, "adj4", 2, 0, 1, [("A_", ((0, 0), (1, 0)))])
    cells = directory / "adj4_n02.shard0of1.cells"
    cells.write_text("")
    with pytest.raises(ValueError):
        list(read_shard_files(directory, "adj4", 2, 0, 1))
