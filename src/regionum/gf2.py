"""Linear algebra over GF(2) with rows stored as int bitmasks.

Used to solve the region incidence system: which sign-flip patterns are
realizable as a symmetric difference of region supports.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import Iterator, Sequence


@dataclasses.dataclass(frozen=True)
class Gf2System:
    """Row space of a set of GF(2) vectors of a fixed length.

    ``pivots[k]`` is the pivot column of ``reduced[k]``; ``combos[k]`` is the
    bitmask (over original row indices) whose XOR yields ``reduced[k]``, so
    solutions can be reported in terms of the input rows.  ``kernel`` is a
    basis of the input-row combinations that XOR to zero, one per row that
    reduced to zero, in input order.
    """

    reduced: tuple[int, ...]
    pivots: tuple[int, ...]
    combos: tuple[int, ...]
    kernel: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.reduced)

    def solve(self, target: int) -> int | None:
        """Bitmask of input rows XORing to ``target``, or None."""
        residue = target
        combo = 0
        for row, piv, cmb in zip(self.reduced, self.pivots, self.combos):
            if (residue >> piv) & 1:
                residue ^= row
                combo ^= cmb
        return combo if residue == 0 else None


def row_reduce(rows: Sequence[int]) -> Gf2System:
    reduced: list[int] = []
    pivots: list[int] = []
    combos: list[int] = []
    kernel: list[int] = []
    for idx, row in enumerate(rows):
        combo = 1 << idx
        for r, piv, cmb in zip(reduced, pivots, combos):
            if (row >> piv) & 1:
                row ^= r
                combo ^= cmb
        if row:
            reduced.append(row)
            pivots.append(row.bit_length() - 1)
            combos.append(combo)
        else:
            kernel.append(combo)
    return Gf2System(tuple(reduced), tuple(pivots), tuple(combos), tuple(kernel))


def solution_coset(rows: Sequence[int], target: int) -> Iterator[int]:
    """All row-selection bitmasks XORing to ``target`` (empty if none)."""
    system = row_reduce(rows)
    particular = system.solve(target)
    if particular is None:
        return
    for k in range(len(system.kernel) + 1):
        for combo in combinations(system.kernel, k):
            out = particular
            for b in combo:
                out ^= b
            yield out
