"""One-step map streams, classification, cores, and homotopy equivalence.

The heavyweight oracle here recomputes the full multi-step relation: the
set of continuous self-maps reachable from the identity through chains of
one-step homotopies.  Classification flags derived from one-step maps alone
must agree with that closure (reducible, pointed reducible over every
choice of base point, and rigid).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import _pure
from digitop.homotopy import (
    Classification,
    SelfMap,
    candidate_count,
    classify,
    homotopy_equivalent,
    is_continuous,
    one_step_identity_maps,
    reduce_to_core,
)
from digitop.image import (
    DigitalImage,
    are_isomorphic,
    canonical_form,
    lattice_to_image,
)
from digitop.lattice import builtin_fixtures, cycle_image

from .conftest import all_labeled_connected, edges_of, random_connected_rows

# ---------------------------------------------------------------------------
# helpers


def _image_classes(n):
    """One representative per isomorphism class of connected images on n points."""
    seen = {}
    for rows in all_labeled_connected(n):
        key = canonical_form(DigitalImage(n, rows))
        if key not in seen:
            seen[key] = DigitalImage(n, rows)
    return list(seen.values())


def _closed_neighborhoods(image):
    return [
        tuple(sorted(set(_bits(row)) | {x}))
        for x, row in enumerate(image.rows)
    ]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _continuous_tables(image):
    """Every continuous self-map, as a set of tables (no one-step restriction)."""
    n, rows = image.n, image.rows
    edges = sorted(edges_of(rows))
    out = set()
    for table in itertools.product(range(n), repeat=n):
        if all(
            table[a] == table[b] or (rows[table[a]] >> table[b]) & 1
            for a, b in edges
        ):
            out.add(table)
    return out


def _reachable_from_identity(image, fix=None):
    """Continuous maps joined to the identity by chains of one-step homotopies.

    Two maps are one step apart when the values at each point are equal or
    adjacent.  With ``fix`` set, every map in the chain must fix that point,
    which is the pointed version of the relation.
    """
    n, rows = image.n, image.rows
    everything = _continuous_tables(image)
    if fix is not None:
        everything = {t for t in everything if t[fix] == fix}
    closed = _closed_neighborhoods(image)
    identity = tuple(range(n))
    reached = {identity}
    frontier = [identity]
    while frontier and len(reached) < len(everything):
        fresh = []
        for f in frontier:
            spots = [closed[v] for v in f]
            if fix is not None:
                spots[fix] = (fix,)
            for g in itertools.product(*spots):
                if g not in reached and g in everything:
                    reached.add(g)
                    fresh.append(g)
        frontier = fresh
    return reached


def _path_image(n):
    return DigitalImage.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# SelfMap and Classification datatypes


def test_selfmap_validation():
    k2 = DigitalImage.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        SelfMap(k2, (0,))
    with pytest.raises(ValueError):
        SelfMap(k2, (0, 2))
    with pytest.raises(ValueError):
        SelfMap(k2, (-1, 0))
    f = SelfMap(k2, (1, 1))
    assert f(0) == 1 and f(1) == 1
    assert not f.is_identity
    assert not f.is_surjective
    assert f.fixed_points() == [1]
    assert SelfMap(k2, (0, 1)).is_identity
    assert SelfMap(k2, (1, 0)).is_surjective


def test_classification_hierarchy():
    with pytest.raises(ValueError):
        Classification(reducible=False, pointed_reducible=True, rigid=False)
    with pytest.raises(ValueError):
        Classification(reducible=True, pointed_reducible=False, rigid=True)
    assert Classification(True, True, False).label == "pointed-reducible"
    assert Classification(True, False, False).label == "pointed-irreducible reducible"
    assert Classification(False, False, False).label == "irreducible non-rigid"
    assert Classification(False, False, True).label == "rigid"
    c = Classification(False, False, True)
    assert c.irreducible and c.pointed_irreducible


def test_is_continuous_examples():
    p3 = _path_image(3)
    assert is_continuous(SelfMap(p3, (0, 1, 2)))
    assert is_continuous(SelfMap(p3, (2, 1, 0)))
    assert is_continuous(SelfMap(p3, (0, 0, 0)))
    # ends of the path are not adjacent, so this edge image breaks
    assert not is_continuous(SelfMap(p3, (0, 0, 2)))


# ---------------------------------------------------------------------------
# one-step map streams


def test_single_point_has_one_map():
    point = DigitalImage(1, (0,))
    maps = list(one_step_identity_maps(point))
    assert len(maps) == 1 and maps[0].is_identity


def test_k2_has_four_maps():
    k2 = DigitalImage.from_edges(2, [(0, 1)])
    tables = {f.table for f in one_step_identity_maps(k2)}
    assert tables == {(0, 1), (1, 0), (0, 0), (1, 1)}


def test_cycle_rotation_in_stream():
    c4 = cycle_image(4)
    rotation = tuple((i + 1) % 4 for i in range(4))
    assert rotation in {f.table for f in one_step_identity_maps(c4)}


@pytest.mark.parametrize("n", range(1, 7))
def test_stream_matches_unpruned_filter(n):
    """The pruned stream equals filtering the full prod(deg+1) candidate grid."""
    for image in _image_classes(n):
        closed = _closed_neighborhoods(image)
        brute = {
            table
            for table in itertools.product(*closed)
            if is_continuous(SelfMap(image, table))
        }
        stream = [f.table for f in one_step_identity_maps(image)]
        assert len(stream) == len(set(stream))
        assert set(stream) == brute
        assert len(brute) <= candidate_count(image) + 1
        # The kernels read the same walk; pin them to the same brute-force set.
        rows = list(image.rows)
        for value, mask, fixed in _pure.one_step_maps(n, rows):
            assert mask == sum(1 << v for v in set(value))
            assert fixed == sum(value[x] == x for x in range(n))
        shrinking = [t for t in brute if len(set(t)) < n]
        assert _pure.classify_flags(n, rows) == (
            bool(shrinking),
            any(t[x] == x for t in shrinking for x in range(n)),
            brute == {tuple(range(n))},
        )
        assert _pure.min_image_nonsurjective(n, rows) == min(
            (tuple(sorted(set(t))) for t in shrinking), default=None
        )


def test_candidate_count_values():
    assert candidate_count(DigitalImage(1, (0,))) == 0
    assert candidate_count(cycle_image(4)) == 3**4 - 1
    k4 = DigitalImage.from_edges(4, list(itertools.combinations(range(4), 2)))
    assert candidate_count(k4) == 4**4 - 1


def test_disconnected_inputs_rejected():
    """The walker's one check rejects a disconnected image at every entry."""
    two = DigitalImage(2, (0, 0))
    edge = DigitalImage.from_edges(2, [(0, 1)])
    message = r"^adjacency graph is disconnected$"
    with pytest.raises(ValueError, match=message):
        one_step_identity_maps(two)
    with pytest.raises(ValueError, match=message):
        classify(two)
    with pytest.raises(ValueError, match=message):
        reduce_to_core(two)
    with pytest.raises(ValueError, match=message):
        homotopy_equivalent(edge, two)


# ---------------------------------------------------------------------------
# classification


def test_classify_known_small_images():
    point = classify(DigitalImage(1, (0,)))
    assert point.rigid and not point.reducible

    k2 = classify(DigitalImage.from_edges(2, [(0, 1)]))
    assert k2.reducible and k2.pointed_reducible and not k2.rigid

    c4 = classify(cycle_image(4))
    assert c4.reducible and c4.pointed_reducible

    c5 = classify(cycle_image(5))
    assert c5.label == "irreducible non-rigid"


@pytest.mark.parametrize("n", range(3, 21))
def test_cycles_are_never_rigid(n):
    """The one-step rotation witness rules out rigidity for every cycle."""
    image = cycle_image(n)
    rotation = SelfMap(image, tuple((i + 1) % n for i in range(n)))
    assert is_continuous(rotation)
    assert not classify(image).rigid


@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_classify_is_isomorphism_invariant(n, rand):
    rows = random_connected_rows(rand, n)
    image = DigitalImage(n, rows)
    order = list(range(n))
    rand.shuffle(order)
    relabeled = DigitalImage.from_edges(
        n, [(order[a], order[b]) for a, b in edges_of(rows)]
    )
    assert classify(image) == classify(relabeled)


@pytest.mark.parametrize("n", range(1, 6))
def test_classification_agrees_with_multistep_closure(n):
    """One-step flags must match the full homotopic-to-identity closure.

    Reducibility, pointed reducibility (over every base point), and rigidity
    are defined through homotopies of any length; the classifier only ever
    inspects one-step maps.  This checks the two agree on every class.
    """
    for image in _image_classes(n):
        got = classify(image)
        reached = _reachable_from_identity(image)
        assert got.rigid == (len(reached) == 1)
        assert got.reducible == any(len(set(t)) < n for t in reached)
        pointed = any(
            len(set(t)) < n
            for p in range(n)
            for t in _reachable_from_identity(image, fix=p)
        )
        assert got.pointed_reducible == pointed


# ---------------------------------------------------------------------------
# cores and homotopy equivalence


def test_core_of_small_images():
    assert reduce_to_core(cycle_image(4)).n == 1
    c5 = cycle_image(5)
    assert reduce_to_core(c5) == c5
    assert reduce_to_core(_path_image(6)).n == 1


def test_core_is_irreducible_and_idempotent():
    for n in range(1, 7):
        for image in _image_classes(n):
            core = reduce_to_core(image)
            assert classify(core).irreducible
            assert reduce_to_core(core) == core


def _core_by_stream_pick(image, pick):
    """Reduce as reduce_to_core does, but restrict each time to the image set
    of the non-surjective map at index ``pick`` in stream order."""
    while True:
        shrinking = [f.table for f in one_step_identity_maps(image) if not f.is_surjective]
        if not shrinking:
            return image
        keep = {v: i for i, v in enumerate(sorted(set(shrinking[pick])))}
        edges = [(keep[a], keep[b]) for a, b in image.edges() if a in keep and b in keep]
        image = DigitalImage.from_edges(len(keep), edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_core_is_policy_independent(n):
    """The core does not depend on which non-surjective map each step takes:
    the first and the last one in stream order give the lex-min core."""
    for image in _image_classes(n):
        baseline = reduce_to_core(image)
        for pick in (0, -1):
            assert are_isomorphic(baseline, _core_by_stream_pick(image, pick))


def test_homotopy_equivalence_examples():
    point = DigitalImage(1, (0,))
    assert homotopy_equivalent(cycle_image(4), point)
    assert not homotopy_equivalent(cycle_image(5), cycle_image(8))
    assert homotopy_equivalent(cycle_image(5), cycle_image(5))
    shifted = DigitalImage.from_edges(5, [((i + 2) % 5, (i + 3) % 5) for i in range(5)])
    assert homotopy_equivalent(cycle_image(5), shifted)


def test_figure_2_witnesses():
    """Both lattice witnesses are reducible but nowhere pointed reducible.

    Their cores come out as long cycles (12 and 10 points), strictly smaller
    than the originals and irreducible.
    """
    fixtures = builtin_fixtures()
    for name, cycle_length in (("fig2a", 12), ("fig2b", 10)):
        image = lattice_to_image(fixtures[name])
        verdict = classify(image)
        assert verdict.reducible
        assert not verdict.pointed_reducible
        core = reduce_to_core(image)
        assert core.n < image.n
        assert classify(core).irreducible
        assert are_isomorphic(core, cycle_image(cycle_length))


def test_figure_1_images_are_irreducible_not_rigid():
    fixtures = builtin_fixtures()
    for name in ("fig1-1", "fig1-2", "fig1-3"):
        verdict = classify(fixtures[name])
        assert verdict.label == "irreducible non-rigid"
