"""Properness of torus links under region crossing change.

A link diagram admits a region crossing change solving every crossing-flip
target iff every component has even total crossing count with the union of
the other components.  For the standard diagram of the torus link K(p, q)
this reduces to closed-form arithmetic in p and q; three independent
predicates are provided so they can cross-check each other.
"""

from __future__ import annotations

import dataclasses
from math import gcd

from .diagram import toric_diagram


@dataclasses.dataclass(frozen=True)
class TorusLinkSpec:
    """Parameters of the torus link K(p, q), closure of the p-strand braid
    (sigma_1 ... sigma_{p-1})^q."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"need p >= 2, got {self.p}")
        if self.q < 1:
            raise ValueError(f"need q >= 1, got {self.q}")

    @property
    def components(self) -> int:
        return gcd(self.p, self.q)

    @property
    def crossings(self) -> int:
        return (self.p - 1) * self.q

    @property
    def regions(self) -> int:
        """Regions of the standard diagram: crossings + 2, as it is connected."""
        return self.crossings + 2

    @property
    def is_knot(self) -> bool:
        return self.components == 1


def is_proper_closed_form(p: int, q: int) -> bool:
    """Each component of K(p, q) has total linking number pq(d-1)/d^2 with
    the others; proper iff that number is even."""
    d = gcd(p, q)
    total = p * q * (d - 1) // (d * d)
    return total % 2 == 0


def is_proper_power_form(p: int, q: int) -> bool:
    """2-adic criterion: write p = 2^m * k, q = 2^n * k' with k, k' odd;
    proper iff m = n = 0 or m != n."""
    m = (p & -p).bit_length() - 1
    n = (q & -q).bit_length() - 1
    return (m == 0 and n == 0) or m != n


def is_proper_diagram_oracle(p: int, q: int) -> bool:
    """Direct check on the standard diagram: every component must have even
    total linking number with the union of the other components."""
    return toric_diagram(p, q).linking_data().is_proper


def is_proper(p: int, q: int) -> bool:
    return is_proper_closed_form(p, q)
