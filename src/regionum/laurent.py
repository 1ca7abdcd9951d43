"""Exact integer Laurent polynomials in the Kauffman bracket variable A.

Exponents are plain integers (units of A); all arithmetic is exact.  Jones
polynomials are carried in A-exponents internally and converted to powers
of t^(1/2) (t = A^-4) only for display.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        self._coeffs = acc

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def coefficients(self) -> dict[int, int]:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            acc[exp] = acc.get(exp, 0) + c
            if not acc[exp]:
                del acc[exp]
        out = LaurentPoly.zero()
        out._coeffs = acc
        return out

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("only nonnegative powers are supported")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            parts.append(f"{c:+d}*A^{e}" if e else f"{c:+d}")
        return " ".join(parts)

    def to_t_half_powers(self) -> dict[int, int]:
        """Exponent map in units of t^(1/2) via t = A^-4 (A-exponents must
        all be divisible by 2)."""
        out = {}
        for e, c in self._coeffs.items():
            if e % 2:
                raise ValueError(f"A-exponent {e} is not an even integer")
            out[-e // 2] = c
        return out

    def format_t(self) -> str:
        """Sorted coeff*t^(k/2) rendering of a polynomial in t^(1/2)."""
        halves = self.to_t_half_powers()
        if not halves:
            return "0"
        parts = []
        for k in sorted(halves):
            c = halves[k]
            if k == 0:
                parts.append(f"{c:+d}")
            elif k % 2 == 0:
                parts.append(f"{c:+d}*t^{k // 2}")
            else:
                parts.append(f"{c:+d}*t^({k}/2)")
        return " ".join(parts)


# Value of a closed loop in the Kauffman bracket calculus.
LOOP = LaurentPoly({2: -1, -2: -1})
