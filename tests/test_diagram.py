import random
from math import gcd

import pytest

import _oracles
from _words import random_connected_word
from regionum.braid import BraidWord, component_labels, parse_word, toric_braid
from regionum.diagram import DisconnectedDiagramError, close_braid, toric_diagram
from regionum.gf2 import solution_coset


def _anchors(ref):
    return [
        _oracles._cyclic_anchor(sorted(set(f.corners)), len(ref.faces) - 2)
        for f in ref.faces
        if not f.is_outer
    ]


def _bits(row):
    return {c for c in range(row.bit_length()) if row >> c & 1}


def test_standard_diagram_ids_are_face_anchors():
    # region schedules index small faces by anchor position
    for p in range(2, 7):
        for q in range(p + 1, 6 * p + 6):
            w = toric_braid(p, q)
            ref = _oracles.close_braid(w)
            assert close_braid(w).rows == ref.rows, (p, q)
            assert _anchors(ref) == list(range(1, len(w.letters) + 1)), (p, q)


def _previous(gens, c, g):
    """Position of the last letter of generator g before letter c,
    cyclically, or None if g never occurs."""
    before = [k for k in range(c) if gens[k] == g]
    after = [k for k in range(c, len(gens)) if gens[k] == g]
    return (before or after or [None])[-1]


def test_region_ids_follow_opening_crossings():
    for w in (toric_braid(2, 2), toric_braid(3, 4), parse_word("1 -2 -1 3 2 2 -3 1")):
        d = close_braid(w)
        gens = [abs(x) for x in w.letters]
        assert len(d.rows) == len(gens) + 2
        for c, g in enumerate(gens):
            # region c + 1 opens at crossing c and closes at the next
            # letter of the same generator, cyclically: the only letters
            # of generator g on its boundary
            after = [k for k in range(c + 1, len(gens)) if gens[k] == g]
            before = [k for k in range(c + 1) if gens[k] == g]
            assert {k for k in _bits(d.rows[c]) if gens[k] == g} == {c, (after + before)[0]}
    # K(2,2): both bigons have corners {0, 1}, so both anchor at letter 1
    ref = _oracles.close_braid(toric_braid(2, 2))
    assert _anchors(ref) == [1, 1]
    assert toric_diagram(2, 2).rows == ref.rows == (0b11, 0b11, 0b11, 0b11)


def _assert_matches_reference(w):
    # the reference numbers faces its own way (top corners found among
    # half-edge orbits, side faces by their ports), so equal rows mean
    # equal faces, ids and side faces at crossings + 1 and crossings + 2
    d, ref = close_braid(w), _oracles.close_braid(w)
    assert d.rows == ref.rows, w
    assert component_labels(d.word()) == ref.component_of_strand, w


def test_close_braid_matches_reference_on_standard_diagrams():
    for p in range(2, 9):
        for q in range(1 if p > 2 else 2, 8 * p):
            _assert_matches_reference(toric_braid(p, q))


def test_close_braid_matches_reference_faces_on_random_words():
    rng = random.Random(29)
    two_strand = single_letter = 0
    for _ in range(200):
        p = rng.randint(2, 6)
        w = random_connected_word(rng, p, rng.randint(p - 1, 4 * p))
        _assert_matches_reference(w)
        two_strand += p == 2
        gens = [abs(x) for x in w.letters]
        single_letter += any(gens.count(g) == 1 for g in gens)
    assert two_strand and single_letter


def test_close_braid_rejects_disconnected():
    with pytest.raises(DisconnectedDiagramError):
        close_braid(BraidWord(3, (1, 1)))  # sigma_2 never occurs


def test_euler_face_count():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.randint(2, 5)
        d = close_braid(random_connected_word(rng, p, rng.randint(p, 12)))
        assert len(d.rows) == d.crossings + 2


def _random_diagrams(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(2, 5)
        yield rng, close_braid(random_connected_word(rng, p, rng.randint(p, 12)))


def test_gf2_solutions_realize_their_targets():
    for rng, d in _random_diagrams(17, 40):
        regions = len(d.rows)
        chosen = rng.sample(range(1, regions + 1), rng.randint(0, regions))
        target = 0
        for r in chosen:
            target ^= d.rows[r - 1]
        expected = d.region_crossing_changes(chosen).word()
        solutions = list(solution_coset(d.rows, target))
        assert sum(1 << (r - 1) for r in chosen) in solutions
        for sol in solutions:
            ids = [k + 1 for k in _oracles.select_bits(sol)]
            assert d.region_crossing_changes(ids).word() == expected


def test_total_corner_incidence():
    # crossing c of generator g has four corners: the top one in region
    # c + 1, the bottom one in the face it closes, opened by the last
    # sigma_g before it, and the side ones in the faces read in gaps
    # g - 1 and g + 1, opened by the last letter of those generators (the
    # side faces in gaps 0 and p); its row set is exactly theirs
    rng = random.Random(5)
    for _ in range(20):
        p = rng.randint(2, 5)
        d = close_braid(random_connected_word(rng, p, rng.randint(p, 12)))
        gens = [abs(x) for x in d.letters]
        side = {0: d.crossings, p: d.crossings + 1}
        for c, g in enumerate(gens):
            corners = {c, _previous(gens, c, g)}
            for h in (g - 1, g + 1):
                corners.add(side[h] if h in side else _previous(gens, c, h))
            assert {k for k, row in enumerate(d.rows) if row >> c & 1} == corners


def test_exactly_two_outer_regions_numbered_last():
    w = toric_braid(4, 5)
    d, ref = close_braid(w), _oracles.close_braid(w)
    outer = [k + 1 for k, f in enumerate(ref.faces) if f.is_outer]
    assert outer == [len(d.rows) - 1, len(d.rows)]
    # the side faces of gaps 0 and 4 touch every sigma_1 and sigma_3
    for row, g in zip(d.rows[-2:], (1, 3)):
        assert _bits(row) == {c for c, x in enumerate(w.letters) if abs(x) == g}


def test_word_roundtrip():
    w = parse_word("1 -2 1 1 -2")
    assert close_braid(w).word() == w


def test_region_crossing_change_is_involutive():
    d = toric_diagram(3, 5)
    for rid in (1, 4, len(d.rows)):
        once = d.region_crossing_changes([rid])
        assert once != d
        assert once.region_crossing_changes([rid]) == d


def test_region_crossing_changes_order_independent():
    d = toric_diagram(3, 5)
    ids = [2, 5, 7]
    a = d.region_crossing_changes(ids)
    b = d.region_crossing_changes(reversed(ids))
    assert a == b
    # set semantics: applying a region twice cancels
    assert d.region_crossing_changes([2, 2]) == d


def test_region_change_flips_exactly_support():
    w = toric_braid(3, 4)
    d, ref = close_braid(w), _oracles.close_braid(w)
    changed = d.region_crossing_changes([3])
    flipped = {c for c in range(d.crossings) if changed.letters[c] != d.letters[c]}
    assert flipped == set(ref.faces[2].corners)
    assert d.apply_flips(d.rows[2]) == changed
    for bad in (0, len(d.rows) + 1):
        with pytest.raises(ValueError, match=f"region id {bad} out of range 1..{len(d.rows)}"):
            d.region_crossing_changes([bad])
    for bits in (1 << d.crossings, -1):
        with pytest.raises(ValueError):
            d.apply_flips(bits)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 3), (4, 4), (4, 6), (6, 3)])
def test_linking_data_on_torus_links(p, q):
    d = gcd(p, q)
    data = toric_diagram(p, q).linking_data()
    assert data.component_count == d
    for i in range(d):
        for j in range(d):
            if i != j:
                # 2pq/d^2 crossings between two components, all positive:
                # lk is half of them
                assert data.linking_matrix[i][j] == p * q // d**2


def test_component_count_matches_gcd():
    for p, q in [(2, 3), (3, 4), (4, 6), (5, 5)]:
        assert toric_diagram(p, q).linking_data().component_count == gcd(p, q)


def test_incidence_matrix_matches_supports():
    w = toric_braid(4, 5)
    d, ref = close_braid(w), _oracles.close_braid(w)
    assert len(d.rows) == len(ref.faces)
    for face, row in zip(ref.faces, d.rows):
        assert _bits(row) == set(face.corners)
