"""The solution coset of a GF(2) system with rows stored as int bitmasks.

Used to solve the region incidence system: which sign-flip patterns are
realizable as a symmetric difference of region supports.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence


def solution_coset(rows: Sequence[int], target: int) -> Iterator[int]:
    """All row-selection bitmasks XORing to ``target`` (empty if none).

    Elimination in input order: each row is reduced by the pivot rows kept
    so far, ``combo`` tracking the input rows it is the XOR of.  A row left
    nonzero is kept with its top bit as pivot; a row reduced to zero gives
    its ``combo`` to the kernel.  The coset is a particular solution XORed
    with each combination of kernel vectors, fewest vectors first.
    """
    pivots: list[tuple[int, int, int]] = []  # (reduced row, pivot bit, combo)
    kernel: list[int] = []
    for idx, row in enumerate(rows):
        combo = 1 << idx
        for reduced, bit, cmb in pivots:
            if (row >> bit) & 1:
                row ^= reduced
                combo ^= cmb
        if row:
            pivots.append((row, row.bit_length() - 1, combo))
        else:
            kernel.append(combo)
    particular = 0
    for reduced, bit, cmb in pivots:
        if (target >> bit) & 1:
            target ^= reduced
            particular ^= cmb
    if target:
        return
    for k in range(len(kernel) + 1):
        for chosen in combinations(kernel, k):
            out = particular
            for b in chosen:
                out ^= b
            yield out
