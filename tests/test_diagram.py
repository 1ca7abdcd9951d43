import json
import random
from math import gcd

import pytest

import _oracles
from _words import random_connected_word
from regionum.braid import BraidWord, parse_word, toric_braid
from regionum.diagram import (
    DisconnectedDiagramError,
    close_braid,
    expected_pairwise_crossings,
    toric_diagram,
)
from regionum.gf2 import select_bits, solution_coset


def _anchors(d):
    return [
        _oracles._cyclic_anchor(sorted(set(r.corners)), d.crossings)
        for r in d.regions
        if not r.is_outer
    ]


def test_standard_diagram_ids_are_face_anchors():
    # region schedules index small faces by anchor position
    for p in range(2, 7):
        for q in range(p + 1, 6 * p + 6):
            d = toric_diagram(p, q)
            assert _anchors(d) == list(range(1, d.crossings + 1)), (p, q)


def test_region_ids_follow_opening_crossings():
    for w in (toric_braid(2, 2), toric_braid(3, 4), parse_word("1 -2 -1 3 2 2 -3 1")):
        d = close_braid(w)
        length = len(w.letters)
        assert [r.id for r in d.regions] == list(range(1, length + 3))
        assert [r.is_outer for r in d.regions] == [False] * length + [True, True]
        for r in d.regions[:length]:
            # region c + 1 opens at crossing c and closes at the next
            # letter of the same generator, cyclically
            c = r.id - 1
            g = d.generators[c]
            after = [k for k in range(c + 1, length) if d.generators[k] == g]
            before = [k for k in range(c + 1) if d.generators[k] == g]
            assert (r.corners[0], r.corners[-1]) == (c, (after + before)[0])
    # K(2,2): both bigons have corners {0, 1}, so both anchor at letter 1
    d = toric_diagram(2, 2)
    assert _anchors(d) == [1, 1]
    assert [r.id for r in d.regions] == [1, 2, 3, 4]


def _faces(d):
    return sorted(
        (tuple(sorted(r.corners)), r.is_outer, row) for r, row in zip(d.regions, d.rows)
    )


def test_close_braid_matches_reference_on_standard_diagrams():
    for p in range(2, 9):
        for q in range(1 if p > 2 else 2, 8 * p):
            w = toric_braid(p, q)
            d, ref = close_braid(w), _oracles.close_braid(w)
            assert [(r.id, sorted(r.corners), r.is_outer) for r in d.regions] == [
                (r.id, sorted(r.corners), r.is_outer) for r in ref.regions
            ], (p, q)
            assert d.rows == ref.rows, (p, q)
            assert d.component_of_strand == ref.component_of_strand, (p, q)


def test_close_braid_matches_reference_faces_on_random_words():
    rng = random.Random(29)
    two_strand = single_letter = 0
    for _ in range(200):
        p = rng.randint(2, 6)
        w = random_connected_word(rng, p, rng.randint(p - 1, 4 * p))
        d, ref = close_braid(w), _oracles.close_braid(w)
        assert _faces(d) == _faces(ref), w
        assert d.component_of_strand == ref.component_of_strand, w
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
        assert len(d.regions) == d.crossings + 2


def _random_diagrams(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(2, 5)
        yield rng, close_braid(random_connected_word(rng, p, rng.randint(p, 12)))


def test_region_ids_are_a_bijection():
    diagrams = [toric_diagram(3, 4)] + [d for _, d in _random_diagrams(13, 40)]
    for d in diagrams:
        assert sorted(r.id for r in d.regions) == list(range(1, d.crossings + 3))


def test_gf2_solutions_realize_their_targets():
    for rng, d in _random_diagrams(17, 40):
        regions = len(d.regions)
        chosen = rng.sample(range(1, regions + 1), rng.randint(0, regions))
        target = 0
        for r in chosen:
            target ^= d.rows[r - 1]
        expected = d.region_crossing_changes(chosen).word()
        solutions = list(solution_coset(d.rows, target))
        assert sum(1 << (r - 1) for r in chosen) in solutions
        for sol in solutions:
            ids = [k + 1 for k in select_bits(sol)]
            assert d.region_crossing_changes(ids).word() == expected


def test_total_corner_incidence():
    # every crossing has four corners, so summed corner lists have length 4c
    rng = random.Random(5)
    for _ in range(20):
        p = rng.randint(2, 5)
        d = close_braid(random_connected_word(rng, p, rng.randint(p, 12)))
        assert sum(len(r.corners) for r in d.regions) == 4 * d.crossings


def test_exactly_two_outer_regions_numbered_last():
    d = toric_diagram(4, 5)
    outer = [r.id for r in d.regions if r.is_outer]
    assert outer == [len(d.regions) - 1, len(d.regions)]


def test_word_roundtrip():
    w = parse_word("1 -2 1 1 -2")
    assert close_braid(w).word() == w


def test_region_crossing_change_is_involutive():
    d = toric_diagram(3, 5)
    for rid in (1, 4, len(d.regions)):
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
    d = toric_diagram(3, 4)
    r = d.region_by_id(3)
    changed = d.region_crossing_changes([3])
    flipped = {c for c in range(d.crossings) if changed.signs[c] != d.signs[c]}
    assert flipped == set(r.corners)
    assert d.apply_flips(d.rows[2]) == changed
    for bad in (0, len(d.regions) + 1):
        with pytest.raises(ValueError):
            d.region_crossing_changes([bad])
    for bits in (1 << d.crossings, -1):
        with pytest.raises(ValueError):
            d.apply_flips(bits)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 3), (4, 4), (4, 6), (6, 3)])
def test_linking_data_on_torus_links(p, q):
    d = gcd(p, q)
    diagram = toric_diagram(p, q)
    data = diagram.linking_data()
    assert data.component_count == d
    for i in range(d):
        for j in range(d):
            if i != j:
                assert data.pairwise_crossings[i][j] == expected_pairwise_crossings(p, q)
                # all crossings positive: lk = half the crossing count
                assert data.linking_matrix[i][j] * 2 == data.pairwise_crossings[i][j]


def test_component_count_matches_gcd():
    for p, q in [(2, 3), (3, 4), (4, 6), (5, 5)]:
        assert toric_diagram(p, q).component_count == gcd(p, q)


def test_to_json_parses_and_matches():
    d = toric_diagram(3, 4)
    payload = json.loads(d.to_json())
    assert payload["strands"] == 3
    assert payload["word"] == [1, 2] * 4
    assert len(payload["regions"]) == len(d.regions)
    assert len(payload["incidence"]) == len(d.regions)


def test_incidence_matrix_matches_supports():
    d = toric_diagram(4, 5)
    assert len(d.rows) == len(d.regions)
    for region, row in zip(d.regions, d.rows):
        assert {c for c in range(d.crossings) if (row >> c) & 1} == set(region.corners)
