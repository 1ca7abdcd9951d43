import json
import random
from math import gcd

import pytest

from regionum import diagram
from regionum.braid import BraidWord, parse_word, toric_braid
from regionum.diagram import (
    DisconnectedDiagramError,
    FlipVector,
    close_braid,
    expected_pairwise_crossings,
    toric_diagram,
)


def random_connected_word(rng, p, c):
    while True:
        w = BraidWord(
            p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(c))
        )
        if {abs(x) for x in w.letters} == set(range(1, p)):
            return w


def _anchors(d):
    return [
        diagram._cyclic_anchor(sorted(set(r.corners)), d.crossings)
        for r in d.regions
        if not r.is_outer
    ]


def test_standard_diagram_ids_are_face_anchors():
    # region schedules index small faces by anchor position
    for p in range(2, 7):
        for q in range(p + 1, 6 * p + 6):
            d = toric_diagram(p, q)
            assert _anchors(d) == list(range(1, d.crossings + 1)), (p, q)


def test_tied_face_anchors_are_broken_by_orbit(monkeypatch):
    # K(2,2): both bigons have corners {0, 1}, so both anchor at letter 1
    d = toric_diagram(2, 2)
    assert _anchors(d) == [1, 1]
    assert [r.id for r in d.regions] == [1, 2, 3, 4]
    # with every anchor tied, the numbering is still a deterministic
    # relabelling of the same faces
    expected = close_braid(toric_braid(3, 4))
    monkeypatch.setattr(diagram, "_cyclic_anchor", lambda corners, length: 1)
    tied = close_braid(toric_braid(3, 4))
    assert tied == close_braid(toric_braid(3, 4))
    assert sorted(r.corners for r in tied.regions) == sorted(
        r.corners for r in expected.regions
    )
    assert [r.id for r in tied.regions] == list(range(1, len(tied.regions) + 1))


def test_close_braid_rejects_disconnected():
    with pytest.raises(DisconnectedDiagramError):
        close_braid(BraidWord(3, (1, 1)))  # sigma_2 never occurs


def test_euler_face_count():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.randint(2, 5)
        d = close_braid(random_connected_word(rng, p, rng.randint(p, 12)))
        assert len(d.regions) == d.crossings + 2


def test_region_ids_are_a_bijection():
    d = toric_diagram(3, 4)
    assert sorted(r.id for r in d.regions) == list(range(1, len(d.regions) + 1))


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
        assert d.region_crossing_change(rid).region_crossing_change(rid) == d


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
    changed = d.region_crossing_change(3)
    flipped = {c for c in range(d.crossings) if changed.signs[c] != d.signs[c]}
    assert flipped == set(r.support)


def test_flip_vector_ops():
    v = FlipVector.from_crossings(6, [0, 3])
    u = FlipVector.from_crossings(6, [3, 5])
    assert (v ^ u).crossings() == (0, 5)
    assert v.weight() == 2
    with pytest.raises(ValueError):
        FlipVector.from_crossings(4, [4])


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
    rows = d.incidence_matrix()
    for region, row in zip(d.regions, rows):
        assert {c for c in range(d.crossings) if (row >> c) & 1} == set(region.support)
