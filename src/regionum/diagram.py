"""Closed-braid planar diagrams: regions, region crossing change, the GF(2)
incidence system, and linking data.

The diagram of the closure of a braid word has one crossing per letter.
Crossing ids are the 0-based letter positions.  Strands run bottom to top
at positions 1..p, and the closure joins the top of each position to its
bottom.  Gap j lies between positions j and j + 1; gaps 0 and p are the
two sides of the diagram.  The letter sigma_j^(+-1) crosses in gap j and
has four corners: its bottom and top corners lie in gap j, its left corner
in gap j - 1 and its right corner in gap j + 1.  Every face lies in one
gap.  A small face of gap j runs from one sigma_j up to the next one, and
gaps 0 and p are each one side face, so a connected diagram has
``crossings + 2`` faces (sphere Euler count).
"""

from __future__ import annotations

import dataclasses
import json
from math import gcd

from .braid import BraidWord


class DisconnectedDiagramError(ValueError):
    """The closure splits: some generator never occurs in the word."""


@dataclasses.dataclass(frozen=True)
class Region:
    """A face of the diagram.

    ``corners`` lists one crossing id per face corner, so a crossing touched
    at two corners appears twice.  A small face lists its corners bottom to
    top: the crossing that opens it (its id - 1), the side corners in word
    order from there, across the seam if the face crosses it, and last the
    crossing that closes it.  A side face lists its corners in word order.
    Ids follow :func:`close_braid`: small faces first, by opening crossing.
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


def close_braid(w: BraidWord) -> PlanarDiagram:
    """Build the closed-braid diagram of a nonempty word using every
    generator (otherwise the diagram is disconnected).

    Each face is read off the word in one pass.  In gap j, sigma_j closes
    the face below it with its bottom corner and opens the face above it
    with its top corner, while sigma_(j-1) and sigma_(j+1) add their right
    and left corners to the face being read.  The face opened by the last
    sigma_j in gap j crosses the seam: it goes on with what gap j read
    before its first sigma_j.

    Numbering: the small face that crossing c opens is region c + 1, and
    the side faces of gaps 0 and p are regions crossings + 1 and
    crossings + 2.  The arithmetic region-set schedules in
    :mod:`regionum.bounds` rely on this.  On the standard diagram of
    K(p,q) with q >= 3 it is the same as anchoring each small face at the
    corner after the largest cyclic gap between its corner positions: a
    small face spans p - 1 letters of a word of q(p - 1), so the gap across
    the seam is the largest, and the corner after it is the opening one.
    """
    if not w.letters:
        raise DisconnectedDiagramError("empty word closes to disjoint circles")
    used = {abs(x) for x in w.letters}
    missing = [j for j in range(1, w.strands) if j not in used]
    if missing:
        raise DisconnectedDiagramError(
            f"generator(s) {missing} never occur: the closure is split"
        )

    length = len(w.letters)
    faces: list[list[int]] = [[] for _ in range(length + 2)]
    # reading[j]: the face being read in gap j; in gaps 1..p-1 it starts
    # as the part of the seam face below the first sigma_j
    reading = [faces[length]] + [[] for _ in range(w.strands - 1)] + [faces[length + 1]]
    below_first = reading[:]
    for c, x in enumerate(w.letters):
        j = abs(x)
        reading[j - 1].append(c)  # left corner
        reading[j + 1].append(c)  # right corner
        reading[j].append(c)  # bottom corner closes the face below
        reading[j] = faces[c]
        faces[c].append(c)  # top corner opens region c + 1
    for j in range(1, w.strands):
        reading[j] += below_first[j]
    regions = tuple(
        Region(id=k + 1, corners=tuple(f), is_outer=k >= length)
        for k, f in enumerate(faces)
    )
    rows = []
    for f in faces:
        row = 0
        for c in f:
            row |= 1 << c
        rows.append(row)

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
        regions=regions,
        rows=tuple(rows),
        component_of_strand=tuple(component_of_strand),
    )


def toric_diagram(p: int, q: int) -> PlanarDiagram:
    from .braid import toric_braid

    return close_braid(toric_braid(p, q))


def expected_pairwise_crossings(p: int, q: int) -> int:
    """Crossing count between any two distinct components of the standard
    toric diagram: 2pq/d^2."""
    d = gcd(p, q)
    return (2 * p * q) // (d * d)
