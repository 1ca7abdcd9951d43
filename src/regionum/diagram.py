"""Closed-braid planar diagrams: the signed word, the flip set of each
region, region crossing change, and linking data.

The diagram of the closure of a braid word has one crossing per letter.
Crossing ids are the 0-based letter positions.  Strands run bottom to top
at positions 1..p, and the closure joins the top of each position to its
bottom.  Gap j lies between positions j and j + 1; gaps 0 and p are the
two sides of the diagram.  The letter sigma_j^(+-1) crosses in gap j and
has four corners: its bottom and top corners lie in gap j, its left corner
in gap j - 1 and its right corner in gap j + 1.  Every face lies in one
gap.  A small face of gap j runs from one sigma_j up to the next one, and
gaps 0 and p are each one side face, so a connected diagram has
``crossings + 2`` faces (sphere Euler count).  A region crossing change
flips every crossing on the face's boundary, so all a face holds here is
its set of crossings.
"""

from __future__ import annotations

import dataclasses

from .braid import BraidWord, component_labels, toric_braid


class DisconnectedDiagramError(ValueError):
    """The closure splits: some generator never occurs in the word."""


@dataclasses.dataclass(frozen=True)
class LinkingData:
    component_count: int
    linking_matrix: tuple[tuple[int, ...], ...]  # lk in units of 1/1 (signed half-counts)

    def total_linking(self, i: int) -> int:
        return sum(self.linking_matrix[i][j] for j in range(self.component_count) if j != i)

    @property
    def is_proper(self) -> bool:
        """Every component has even total linking number with the others:
        region crossing change is an unknotting operation exactly then."""
        return not any(self.total_linking(i) % 2 for i in range(self.component_count))


@dataclasses.dataclass(frozen=True)
class PlanarDiagram:
    """Immutable closed-braid diagram: the signed word and the flip set of
    each region; region crossing change returns a copy with flipped letters
    and the same rows.

    A set of crossing changes is an int over crossings: bit c set means
    crossing c flips.  ``rows[k]`` is the flip set of a region crossing
    change at region k + 1 (a crossing at two corners of the face flips
    once), so a set of region changes flips the XOR of their rows.
    """

    strands: int
    letters: tuple[int, ...]  # signed generator per crossing, as in BraidWord
    rows: tuple[int, ...]  # flip set of each region, in id order

    @property
    def crossings(self) -> int:
        return len(self.letters)

    def word(self) -> BraidWord:
        return BraidWord(self.strands, self.letters)

    def region_crossing_changes(self, region_ids) -> "PlanarDiagram":
        bits = 0
        for r in region_ids:
            if not 1 <= r <= len(self.rows):
                raise ValueError(f"region id {r} out of range 1..{len(self.rows)}")
            bits ^= self.rows[r - 1]
        return self.apply_flips(bits)

    def apply_flips(self, bits: int) -> "PlanarDiagram":
        if bits >> self.crossings:
            raise ValueError(
                f"flip set {bits:#x} has bits beyond crossing {self.crossings - 1}"
            )
        letters = tuple(-x if bits >> c & 1 else x for c, x in enumerate(self.letters))
        return dataclasses.replace(self, letters=letters)

    def linking_data(self) -> LinkingData:
        comp = list(component_labels(self.word()))  # component at each position
        d = max(comp) + 1
        lk2 = [[0] * d for _ in range(d)]  # twice the linking number
        for x in self.letters:
            i = abs(x) - 1
            a, b = comp[i], comp[i + 1]
            if a != b:
                sign = 1 if x > 0 else -1
                lk2[a][b] += sign
                lk2[b][a] += sign
            comp[i], comp[i + 1] = b, a
        return LinkingData(d, tuple(tuple(v // 2 for v in row) for row in lk2))


def close_braid(w: BraidWord) -> PlanarDiagram:
    """Build the closed-braid diagram of a nonempty word using every
    generator (otherwise the diagram is disconnected).

    Each face is read off the word in one pass, as the OR of its corners'
    crossing bits.  In gap j, sigma_j closes the face below it with its
    bottom corner and opens the face above it with its top corner, while
    sigma_(j-1) and sigma_(j+1) add their right and left corners to the
    face being read.  The face opened by the last sigma_j in gap j crosses
    the seam: it goes on with what gap j read before its first sigma_j,
    which is collected in one int per gap and ORed in at the end.

    Numbering: the small face that crossing c opens is region c + 1, and
    the side faces of gaps 0 and p are regions crossings + 1 and
    crossings + 2.  The arithmetic region-set schedules in
    :mod:`regionum.bounds` rely on this.  On the standard diagram of
    K(p,q) with q >= 3 it is the same as anchoring each small face at the
    corner after the largest cyclic gap between its corner positions: a
    small face spans p - 1 letters of a word of q(p - 1), so the gap across
    the seam is the largest, and the corner after it is the opening one.
    """
    letters = w.letters
    if not letters:
        raise DisconnectedDiagramError("empty word closes to disjoint circles")
    p = w.strands
    used = {abs(x) for x in letters}
    missing = [j for j in range(1, p) if j not in used]
    if missing:
        raise DisconnectedDiagramError(
            f"generator(s) {missing} never occur: the closure is split"
        )

    length = len(letters)
    # rows[length + 1 + j] collects the part of gap j's seam face below its
    # first sigma_j; reading[j] is the row of the face being read in gap j
    rows = [0] * (length + p + 1)
    reading = [length, *range(length + 2, length + p + 1), length + 1]
    for c, x in enumerate(letters):
        j = x if x > 0 else -x
        bit = 1 << c
        rows[reading[j - 1]] |= bit  # left corner
        rows[reading[j + 1]] |= bit  # right corner
        rows[reading[j]] |= bit  # bottom corner closes the face below
        reading[j] = c
        rows[c] = bit  # top corner opens region c + 1
    for j in range(1, p):
        rows[reading[j]] |= rows[length + 1 + j]
    return PlanarDiagram(strands=p, letters=letters, rows=tuple(rows[: length + 2]))


def toric_diagram(p: int, q: int) -> PlanarDiagram:
    return close_braid(toric_braid(p, q))
