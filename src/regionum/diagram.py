"""Closed-braid planar diagrams: combinatorial map, regions, region crossing
change, the GF(2) incidence system, and linking data.

The diagram of the closure of a braid word has one crossing per letter.
Crossing ids are the 0-based letter positions.  Half-edges are encoded as
``4 * crossing + port`` with ports in counterclockwise order::

    3 TL   2 TR
       \\   /
        \\ /
        / \\
    0 BL   1 BR

Strands run bottom to top; the closure joins the top of each column to its
bottom.  Faces are the orbits of (rotation o edge-involution); for a
connected diagram there are ``crossings + 2`` of them (sphere Euler count).
"""

from __future__ import annotations

import dataclasses
import json
from math import gcd

from .braid import BraidWord

BL, BR, TR, TL = 0, 1, 2, 3


class DisconnectedDiagramError(ValueError):
    """The closure splits: some generator never occurs in the word."""


@dataclasses.dataclass(frozen=True)
class Region:
    """A face of the diagram.

    ``corners`` lists one crossing id per face corner, so a crossing touched
    at two corners appears twice.
    """

    id: int
    corners: tuple[int, ...]
    is_outer: bool


@dataclasses.dataclass(frozen=True)
class LinkingData:
    component_count: int
    pairwise_crossings: tuple[tuple[int, ...], ...]  # symmetric, diag = self-crossings
    linking_matrix: tuple[tuple[int, ...], ...]  # lk in units of 1/1 (signed half-counts)

    def total_linking(self, i: int) -> int:
        return sum(self.linking_matrix[i][j] for j in range(self.component_count) if j != i)


@dataclasses.dataclass(frozen=True)
class PlanarDiagram:
    """Immutable closed-braid diagram; region crossing change returns a copy
    with flipped signs and shared map structure.

    A set of crossing changes is an int over crossings: bit c set means
    crossing c flips.  ``rows[k]`` is the flip set of a region crossing
    change at region k + 1 (a crossing at two corners of the face flips
    once), so a set of region changes flips the XOR of their rows.
    """

    strands: int
    generators: tuple[int, ...]  # generator index (1-based) per crossing
    signs: tuple[int, ...]  # +1 / -1 per crossing
    regions: tuple[Region, ...]  # 1-based ids, small regions first
    rows: tuple[int, ...]  # flip set of each region, in id order
    component_of_strand: tuple[int, ...]  # component label per starting column

    @property
    def crossings(self) -> int:
        return len(self.generators)

    @property
    def component_count(self) -> int:
        return max(self.component_of_strand) + 1

    def word(self) -> BraidWord:
        return BraidWord(
            self.strands,
            tuple(g * s for g, s in zip(self.generators, self.signs)),
        )

    def region_by_id(self, region_id: int) -> Region:
        if not 1 <= region_id <= len(self.regions):
            raise ValueError(
                f"region id {region_id} out of range 1..{len(self.regions)}"
            )
        return self.regions[region_id - 1]

    def region_crossing_changes(self, region_ids) -> "PlanarDiagram":
        bits = 0
        for r in region_ids:
            self.region_by_id(r)  # range check
            bits ^= self.rows[r - 1]
        return self.apply_flips(bits)

    def apply_flips(self, bits: int) -> "PlanarDiagram":
        if bits >> self.crossings:
            raise ValueError(
                f"flip set {bits:#x} has bits beyond crossing {self.crossings - 1}"
            )
        signs = tuple(-s if (bits >> c) & 1 else s for c, s in enumerate(self.signs))
        return dataclasses.replace(self, signs=signs)

    def linking_data(self) -> LinkingData:
        d = self.component_count
        counts = [[0] * d for _ in range(d)]
        lk2 = [[0] * d for _ in range(d)]  # twice the linking number
        pos = list(range(self.strands))  # strand (starting column) at each position
        for c, g in enumerate(self.generators):
            i = g - 1
            a, b = pos[i], pos[i + 1]
            ca, cb = self.component_of_strand[a], self.component_of_strand[b]
            counts[ca][cb] += 1
            if ca != cb:
                counts[cb][ca] += 1
                lk2[ca][cb] += self.signs[c]
                lk2[cb][ca] += self.signs[c]
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        linking = [[lk2[i][j] // 2 for j in range(d)] for i in range(d)]
        return LinkingData(
            component_count=d,
            pairwise_crossings=tuple(tuple(row) for row in counts),
            linking_matrix=tuple(tuple(row) for row in linking),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "strands": self.strands,
                "word": list(g * s for g, s in zip(self.generators, self.signs)),
                "regions": [
                    {
                        "id": r.id,
                        "crossings": sorted(set(r.corners)),
                        "is_outer": r.is_outer,
                    }
                    for r in self.regions
                ],
                "incidence": [
                    format(row, f"0{max(self.crossings, 1)}b")[::-1] for row in self.rows
                ],
            }
        )


def _column_touches(w: BraidWord) -> list[list[tuple[int, int, int]]]:
    """For each column (0-based), the crossings touching it in time order as
    (crossing, bottom_port, top_port)."""
    touches: list[list[tuple[int, int, int]]] = [[] for _ in range(w.strands)]
    for c, x in enumerate(w.letters):
        i = abs(x) - 1
        touches[i].append((c, BL, TL))
        touches[i + 1].append((c, BR, TR))
    return touches


def close_braid(w: BraidWord) -> PlanarDiagram:
    """Build the closed-braid diagram of a nonempty word using every
    generator (otherwise the diagram is disconnected)."""
    if not w.letters:
        raise DisconnectedDiagramError("empty word closes to disjoint circles")
    used = {abs(x) for x in w.letters}
    missing = [j for j in range(1, w.strands) if j not in used]
    if missing:
        raise DisconnectedDiagramError(
            f"generator(s) {missing} never occur: the closure is split"
        )

    n_half = 4 * len(w.letters)
    alpha = [-1] * n_half
    for column in _column_touches(w):
        k = len(column)
        for t in range(k):
            c_top, _, top_port = column[t]
            c_bot, bot_port, _ = column[(t + 1) % k]
            h1 = 4 * c_top + top_port
            h2 = 4 * c_bot + bot_port
            alpha[h1] = h2
            alpha[h2] = h1
    assert all(h >= 0 for h in alpha)

    faces = _trace_faces(alpha)
    if len(faces) != len(w.letters) + 2:
        raise DisconnectedDiagramError(
            f"face count {len(faces)} != crossings + 2; diagram is not planar/connected"
        )
    regions = _number_regions(w, faces)
    rows = tuple(sum(1 << c for c in set(r.corners)) for r in regions)

    perm = w.permutation()
    component_of_strand = [-1] * w.strands
    comp = 0
    for start in range(w.strands):
        if component_of_strand[start] >= 0:
            continue
        j = start
        while component_of_strand[j] < 0:
            component_of_strand[j] = comp
            j = perm[j]
        comp += 1

    return PlanarDiagram(
        strands=w.strands,
        generators=tuple(abs(x) for x in w.letters),
        signs=tuple(1 if x > 0 else -1 for x in w.letters),
        regions=tuple(regions),
        rows=rows,
        component_of_strand=tuple(component_of_strand),
    )


def _trace_faces(alpha: list[int]) -> list[list[int]]:
    """Faces as orbits of h -> rot(alpha(h)), rot = next port counterclockwise."""
    n = len(alpha)
    seen = [False] * n
    faces = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        h = start
        while not seen[h]:
            seen[h] = True
            orbit.append(h)
            h2 = alpha[h]
            h = (h2 & ~3) | ((h2 + 1) & 3)
        faces.append(orbit)
    return faces


def _number_regions(w: BraidWord, faces: list[list[int]]) -> list[Region]:
    """Assign deterministic 1-based ids.

    Each small face is anchored at the corner that follows the largest gap
    when its corner crossings are read cyclically along the word; ids are
    the anchors' 1-based letter positions.  The two large side faces get
    the last two ids (left side first).  This convention was calibrated so
    the arithmetic region-set schedules in :mod:`regionum.bounds` land on
    the intended faces.  Small faces are numbered in order of (anchor,
    half-edge orbit).  On the standard diagram of every K(p,q) with
    p = 2..15, 2 <= q < 8p other than K(2,2) the anchors are pairwise
    distinct, so each small face's id is its anchor, which the schedules
    rely on.  Anchors can coincide elsewhere (K(2,2), about half of
    random connected words); the orbit then breaks the tie, and ids stay
    1..crossings.
    """
    gens = [abs(x) for x in w.letters]
    length = len(gens)
    top = max(gens)
    left_face = None
    right_face = None
    for idx, orbit in enumerate(faces):
        cols = {gens[h >> 2] for h in orbit}
        ports = {h & 3 for h in orbit}
        if cols == {1} and ports <= {BL, TL}:
            left_face = idx
        if cols == {top} and ports <= {BR, TR}:
            right_face = idx
    if left_face is None or right_face is None or left_face == right_face:
        raise AssertionError("could not identify the two side faces")

    anchored: list[tuple[int, list[int]]] = []
    for idx, orbit in enumerate(faces):
        if idx in (left_face, right_face):
            continue
        anchored.append((_cyclic_anchor(sorted({h >> 2 for h in orbit}), length), orbit))
    anchored.sort()

    regions = []
    for rid, (_, orbit) in enumerate(anchored, start=1):
        regions.append(Region(id=rid, corners=tuple(h >> 2 for h in orbit), is_outer=False))
    for rid, idx in ((len(anchored) + 1, left_face), (len(anchored) + 2, right_face)):
        regions.append(
            Region(id=rid, corners=tuple(h >> 2 for h in faces[idx]), is_outer=True)
        )
    return regions


def _cyclic_anchor(corners: list[int], length: int) -> int:
    """1-based letter position of the corner following the largest cyclic
    gap of the sorted corner positions (ties broken toward the smallest)."""
    best_gap = -1
    anchor = corners[0]
    for k, c in enumerate(corners):
        prev = corners[k - 1]
        gap = (c - prev) % length or length
        if gap > best_gap:
            best_gap = gap
            anchor = c
    return anchor + 1


def toric_diagram(p: int, q: int) -> PlanarDiagram:
    from .braid import toric_braid

    return close_braid(toric_braid(p, q))


def expected_pairwise_crossings(p: int, q: int) -> int:
    """Crossing count between any two distinct components of the standard
    toric diagram: 2pq/d^2."""
    d = gcd(p, q)
    return (2 * p * q) // (d * d)
