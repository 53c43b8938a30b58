"""Cell-set and abstract-image generation against brute-force oracles.

The independent oracles here avoid the inductive growth path entirely:
connected cell sets are re-derived from every n-subset of an n-by-n box
(a normalized connected n-cell set always fits in that box), and abstract
classes are re-derived from every labeled connected adjacency matrix.
"""

import itertools
import random

import pytest

from digitop import _kernels, catalog, enumerator
from digitop._kernels import canonical_rows, lattice_rows
from digitop._pure import _bits
from digitop.catalog import (
    CatalogEntry,
    build_catalog,
    catalog_path,
    read_catalog_csv,
    write_catalog_csv,
)
from digitop.enumerator import (
    CellSet,
    abstract_children,
    enumerate_abstract_connected,
    enumerate_fixed_polyominoes,
    enumerate_fixed_polyplets,
    enumerate_lattice_images,
    grow_masks,
    least_witness_items,
    mask_classes,
)
from digitop.image import (
    DigitalImage,
    LatticeImage,
    _encode_rows,
    canonical_form,
    graph6_decode,
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
    assert cs.cells == ((0, 0), (1, 0), (1, 1))
    assert cs.as_string() == "0,0;1,0;1,1"
    assert CellSet.parse(cs.as_string()) == cs
    assert CellSet.parse("2,0;0,1").cells == ((0, 1), (2, 0))
    with pytest.raises(ValueError):
        CellSet(frozenset({(1, 1), (2, 1)}))
    with pytest.raises(ValueError):
        CellSet(frozenset())
    with pytest.raises(ValueError, match="^a cell set needs at least one cell$"):
        CellSet.from_points([])
    with pytest.raises(ValueError, match="^witness cell '1' is not x,y$"):
        CellSet.parse("0,0;1")


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
    assert {frozenset(cs.cells) for cs in grown} == _box_connected_sets(kind, n)
    listed = [cs.cells for cs in grown]
    assert listed == sorted(listed)


def test_grow_masks_deterministic_and_sharded():
    masks = grow_masks(4, 5)
    assert masks == grow_masks(4, 5)
    assert len(masks) == len(set(masks)) == 63
    # Slice i of k is every k-th set in search order from the i-th, so the
    # slices partition the 63 fixed pentominoes.
    slices = [grow_masks(4, 5, 3, index) for index in range(3)]
    assert slices == [masks[index::3] for index in range(3)]


@pytest.mark.parametrize("kind,top", [(4, 8), (8, 6)])
def test_grow_masks_slice_partition(kind, top):
    """The slice partition that every shard CSV on disk was cut by."""
    for n in range(1, top + 1):
        masks = grow_masks(kind, n)
        for k in (1, 2, 3):
            for index in range(k):
                assert grow_masks(kind, n, k, index) == masks[index::k]


def test_cell_count_bounds():
    with pytest.raises(ValueError):
        enumerate_fixed_polyominoes(0)
    with pytest.raises(ValueError):
        enumerate_fixed_polyplets(15)
    with pytest.raises(ValueError):
        enumerate_lattice_images(5, 3)


@pytest.mark.parametrize("kind", [0, 5, 6])
def test_grow_masks_rejects_unknown_kind(kind):
    # Growth and adjacency rows must agree on the kind: any other kind would
    # grow 4-connected sets and then give them 8-adjacency rows.
    with pytest.raises(ValueError, match="adjacency kind must be 4 or 8"):
        grow_masks(kind, 4)


@pytest.mark.parametrize("k,index", [(0, 0), (1, -1), (2, 5)])
def test_grow_masks_rejects_a_bad_slice(k, index):
    # Each would return a list that is no part of a partition of the level:
    # one set of 63, none, and none of [5::2].
    with pytest.raises(ValueError, match=rf"^slice {index} of {k}: need k >= 1 and 0 <= index < k$"):
        grow_masks(4, 5, k, index)


# ---------------------------------------------------------------------------
# abstract classes


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853), (8, 11117)])
def test_abstract_class_counts(n, count):
    assert len(enumerate_abstract_connected(n)) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_abstract_classes_match_labeled_oracle(n):
    """Exact canonical-code set equality against all labeled connected graphs."""
    grown = set(enumerate_abstract_connected(n))
    brute = {
        canonical_form(DigitalImage(n, rows)) for rows in all_labeled_connected(n)
    }
    assert grown == brute


def _joined(rows, subset):
    """The rows of a parent with a new last point joined to ``subset``."""
    new_bit = 1 << len(rows)
    return [row | new_bit if subset >> p & 1 else row for p, row in enumerate(rows)] + [subset]


def test_abstract_children_label_only_deletion_candidates(monkeypatch):
    """From the 853 classes on 7 points, the degree screen and one subset
    per automorphism orbit leave 11,830 children to label, where all 108,331
    subsets give 19,652 that pass the deletion test; both reach the same
    11,117 classes on 8 points."""
    parents = enumerate_abstract_connected(7)
    assert len(parents) == 853
    reference = set()
    for code in parents:
        rows = list(graph6_decode(code).rows)
        degrees = [row.bit_count() for row in rows]
        for subset in range(1, 1 << 7):
            child = _joined(rows, subset)
            if not enumerator._smaller_deletable_point(child, degrees, subset):
                reference.add(_encode_rows(8, canonical_rows(8, child)))

    labelings = 0
    label = _kernels.canonical_rows

    def counted(n, rows):
        nonlocal labelings
        labelings += 1
        return label(n, rows)

    monkeypatch.setattr(_kernels, "canonical_rows", counted)
    codes = abstract_children(parents)
    assert labelings == 11830
    assert len(codes) == 11117
    assert codes == sorted(reference)


def test_degree_screen_drops_only_rejected_subsets():
    """Every nonempty subset that the degree screen drops, on every parent
    with at most 7 points, is one the deletion test rejects."""
    for m in range(1, 8):
        for code in enumerate_abstract_connected(m):
            rows = list(graph6_decode(code).rows)
            degrees = [row.bit_count() for row in rows]
            kept = enumerator._screened_subsets(rows, degrees)
            assert kept == sorted(set(kept)) and 0 not in kept
            for subset in set(range(1, 1 << m)).difference(kept):
                child = _joined(rows, subset)
                assert enumerator._smaller_deletable_point(child, degrees, subset), (code, subset)


def _moved(perm, mask):
    return sum(1 << perm[p] for p in range(len(perm)) if mask >> p & 1)


def test_orbit_representatives_match_brute_force_automorphisms():
    """On every class with at most 7 points, the generators are automorphisms,
    and out of all nonempty subsets the first of each orbit they generate
    is the least of its orbit under the whole automorphism group, listed
    by trying all m! permutations."""
    for m in range(1, 8):
        for code in enumerate_abstract_connected(m):
            rows = list(graph6_decode(code).rows)
            edges = {(p, q) for p in range(m) for q in _bits(rows[p])}
            group = [
                perm for perm in itertools.permutations(range(m))
                if all((perm[p], perm[q]) in edges for p, q in edges)
            ]
            generators = enumerator._automorphism_generators(rows)
            assert {tuple(g) for g in generators} <= set(group), code
            subsets = range(1, 1 << m)
            least = [s for s in subsets if all(_moved(perm, s) >= s for perm in group)]
            assert enumerator._orbit_representatives(list(subsets), generators) == least, code


def test_automorphism_generators_of_an_asymmetric_cubic_graph():
    """The Frucht graph is 3-regular with no automorphism but the identity.
    Refinement cannot split a regular graph, so cell sizes alone match
    many leaves that are no automorphism; none may become a generator."""
    rows = [0] * 12
    for p, jump in enumerate((-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)):
        for q in ((p + 1) % 12, (p + jump) % 12):
            rows[p] |= 1 << q
            rows[q] |= 1 << p
    assert [row.bit_count() for row in rows] == [3] * 12
    assert enumerator._automorphism_generators(rows) == []


def test_abstract_classes_are_sorted_and_canonical():
    codes = enumerate_abstract_connected(5)
    assert codes == sorted(codes)
    for code in codes:
        image = graph6_decode(code)
        assert image.n == 5
        assert canonical_form(image) == code


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
    assert {code for code, _ in classes} == set(by_code)
    for code, witness in classes:
        assert witness.cells == by_code[code]


@pytest.mark.parametrize("kind", [4, 8])
def test_lattice_witness_reproduces_code(kind):
    for n in (4, 6):
        for code, witness in enumerate_lattice_images(kind, n):
            image = lattice_to_image(LatticeImage(kind, frozenset(witness.cells)))
            assert canonical_form(image) == code
            assert graph6_decode(code).n == n


def _d4_images(cells):
    """The 8 rotations and reflections of a cell set, each translation-
    normalized and sorted."""
    images = []
    for swap in (False, True):
        for sx in (1, -1):
            for sy in (1, -1):
                points = [(sx * y, sy * x) if swap else (sx * x, sy * y) for x, y in cells]
                dx = min(x for x, _ in points)
                dy = min(y for _, y in points)
                images.append(sorted((x - dx, y - dy) for x, y in points))
    return images


def _mask(cells):
    return sum(1 << (16 * y + x) for x, y in cells)


def _extreme_sets():
    """14-cell sets with max x or max y 13, the most that 14 cells reach,
    and their D4 images: a bar and a column, a diagonal, and Ls."""
    shapes = [
        [(x, 0) for x in range(14)],
        [(x, x) for x in range(14)],
        [(x, 0) for x in range(13)] + [(13, 1)],
        [(x, 0) for x in range(7)] + [(0, y) for y in range(1, 8)],
    ]
    return [image for cells in shapes for image in _d4_images(cells)]


def test_bit_matrix_helpers_match_the_cells():
    """The transpose, lane reversal and 180 degree turn of a mask, against
    their per-cell definitions on random sets and at the grid's edge."""
    rng = random.Random(5)
    sets = _extreme_sets()
    sets += [{(rng.randrange(16), rng.randrange(16)) for _ in range(rng.randrange(1, 40))}
             for _ in range(500)]
    for cells in sets:
        mask = _mask(cells)
        w = max(x for x, _ in cells)
        h = max(y for _, y in cells)
        assert enumerator._transpose(mask) == _mask((y, x) for x, y in cells)
        assert enumerator._transpose(enumerator._transpose(mask)) == mask
        assert enumerator._reverse_rows(mask, h) == _mask((x, h - y) for x, y in cells)
        assert enumerator._rotate(mask, h, w) == _mask((w - x, h - y) for x, y in cells)
        assert enumerator._witness_cells(mask) == sorted(cells)


@pytest.mark.parametrize("kind", [4, 8])
def test_d4_images_share_a_code(kind):
    """The premise of the orbit filter, on every fixed set with n <= 6: all
    8 D4 images of a set have one canonical code."""
    for n in range(1, 7):
        for mask in grow_masks(kind, n):
            cells = enumerator._witness_cells(mask)
            codes = {_code_of_cells(kind, image) for image in _d4_images(cells)}
            assert codes == {_code_of_cells(kind, cells)}


@pytest.mark.parametrize("kind,top", [(4, 9), (8, 7)])
def test_orbit_filter_keeps_exactly_the_least_image(kind, top):
    # A filter that skips one transform keeps extra sets only from adj4
    # n = 9 and adj8 n = 7 on, which is why the levels reach that far.  The
    # 14-cell sets at the grid's edge test the widest lanes and turns.
    masks = [mask for n in range(1, top + 1) for mask in grow_masks(kind, n)]
    for mask in masks + [_mask(cells) for cells in _extreme_sets()]:
        cells = enumerator._witness_cells(mask)
        assert enumerator._least_in_orbit(mask) == (cells == min(_d4_images(cells)))


def _unfiltered_classes(kind, masks):
    """Every mask labeled, with no orbit filter: the reference for mask_classes."""
    items = []
    for mask in masks:
        cells = enumerator._witness_cells(mask)
        items.append((_code_of_cells(kind, cells), tuple(cells)))
    return least_witness_items(items)


@pytest.mark.parametrize("kind,top", [(4, 9), (8, 6)])
def test_mask_classes_match_unfiltered(kind, top):
    """Filtering to orbit minima changes no code and no witness, neither for
    a whole level nor for shard slices folded by least witness."""
    for n in range(1, top + 1):
        expected = _unfiltered_classes(kind, grow_masks(kind, n))
        assert mask_classes(kind, grow_masks(kind, n)) == expected
        slices = [mask_classes(kind, grow_masks(kind, n, 3, index)) for index in range(3)]
        assert least_witness_items(item for part in slices for item in part) == expected


def test_mask_classes_label_one_set_per_orbit(monkeypatch):
    """Only the least set of each D4 orbit gets its rows built: one per free
    polyomino (OEIS A000105) and per free polyking (A030222).  Of those, each
    distinct row tuple is labeled once."""
    calls = {"lattice_rows": 0, "canonical_rows": 0}

    def counted(name):
        kernel = getattr(_kernels, name)

        def call(*args):
            calls[name] += 1
            return kernel(*args)

        return call

    for name in calls:
        monkeypatch.setattr(_kernels, name, counted(name))
    for kind, n, free, distinct in ((4, 8, 369, 220), (8, 6, 524, 231)):
        calls.update(lattice_rows=0, canonical_rows=0)
        mask_classes(kind, grow_masks(kind, n))
        assert calls == {"lattice_rows": free, "canonical_rows": distinct}


def test_straight_and_bent_triominoes_coincide():
    straight = lattice_to_image(LatticeImage(4, frozenset({(0, 0), (1, 0), (2, 0)})))
    bent = lattice_to_image(LatticeImage(4, frozenset({(0, 0), (1, 0), (1, 1)})))
    assert canonical_form(straight) == canonical_form(bent)
    assert len(enumerate_lattice_images(4, 3)) == 1


# ---------------------------------------------------------------------------
# deduplication


def test_least_witness_items_in_any_order():
    pairs = [
        ("Bw", ((0, 0), (1, 0), (2, 0))),
        ("Bw", ((0, 0), (1, 0), (1, 1))),
        ("A_", None),
        ("A_", ((0, 0), (1, 0))),
    ]
    for order in itertools.permutations(pairs):
        assert least_witness_items(order) == [
            ("A_", ((0, 0), (1, 0))),
            ("Bw", ((0, 0), (1, 0), (1, 1))),
        ]


def test_least_witness_items_across_slices(tmp_path, monkeypatch):
    # Two classified slice CSVs are folded by the merge run without being
    # classified again; the least witness of a code may sit in either slice.
    build_catalog(tmp_path, "adj8", 1)

    def entry(code, cells):
        return CatalogEntry(
            family="adj8", n=2, canonical=code, reducible=True, pointed_reducible=True,
            rigid=False, planar=True, is_cycle=False, witness=CellSet(frozenset(cells)),
        )

    # Stand-in codes, each led by graph6's size byte for two points.
    left = [entry("Aa", ((0, 1), (1, 0))), entry("Ac", ((0, 0), (1, 0)))]
    right = [
        entry("Aa", ((0, 0), (1, 1))),
        entry("Ab", ((0, 0), (0, 1))),
        entry("Ac", ((0, 0), (1, 0))),
    ]
    for index, entries in enumerate((left, right)):
        write_catalog_csv(tmp_path / "shards" / f"adj8_n02.shard{index}of2.csv", entries)

    def no_classification(codes):
        raise AssertionError("the merge classified again")

    monkeypatch.setattr(catalog, "_classify_codes", no_classification)
    merged = build_catalog(tmp_path, "adj8", 2, shards=2)
    expected = [right[0], right[1], left[1]]
    assert merged[1:] == expected
    assert read_catalog_csv(catalog_path(tmp_path, "adj8", 2)) == expected


# ---------------------------------------------------------------------------
# library enumerators against a built catalog


@pytest.mark.parametrize("family,top", [("abstract", 6), ("adj4", 7), ("adj8", 5)])
def test_enumerators_return_catalog_columns(tmp_path, family, top):
    """The library returns a level's ``canonical`` column, and for a lattice
    level its (``canonical``, ``witness_cells``) pairs, as a build writes them."""
    build_catalog(tmp_path, family, top)
    for n in range(1, top + 1):
        entries = read_catalog_csv(catalog_path(tmp_path, family, n))
        if family == "abstract":
            assert enumerate_abstract_connected(n) == [e.canonical for e in entries]
        else:
            assert enumerate_lattice_images(catalog._KINDS[family], n) == [
                (e.canonical, e.witness) for e in entries
            ]
