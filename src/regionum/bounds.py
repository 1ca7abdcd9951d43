"""Upper bounds for the region unknotting number of torus links, with
machine-checked certificates.

Every bound comes from a case of the form q = n*p + a.  The case registry
``_CASES`` holds one record per :class:`TheoremCase`: when the case
applies, its bound formula, its schedule (none for a closed formula) and
the target word its proof prints (if any).  A schedule is an explicit
list of region ids of the standard closed-braid diagram: region crossing
changes there turn the torus braid into a braid word whose closure is a
trivial link.  The region arithmetic is expressed through the index sets

    X_i = {2i(p-1), 2i(p-1) - 2, ..., 2i(p-1) - 2(i-1)}

Every schedule but the 2-braid's is h = n + delta staircase row blocks of
p rows (delta in {-1, 0, +1} per case; mu.nu double blocks for even p, so
h is even there) followed by a tail that depends only on (p, a).  So the
block lemma holds by construction: one more block (two for even p) puts a
staircase block in front of the same schedule, shifted by its crossings,
and a trivial block word in front of the target.

Certificates are verified end to end: the schedule, of exactly the
advertised number of distinct regions, is applied to the diagram, the
resulting word is compared against the printed target word where the
proof gives one, and the closure is certified trivial.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Callable, NamedTuple

from .braid import BraidWord, toric_braid
from .diagram import PlanarDiagram, close_braid
from .gf2 import row_reduce
from .invariants import UnlinkCertificate, Verdict, certify_unlink
from .limits import refuse_over
from .properness import TorusLinkSpec, is_proper
from .templates import (
    mirror_staircase_segment,
    mirror_staircase_word,
    mu,
    staircase_segment,
    staircase_word,
    three_block_word,
)


class NotProperError(ValueError):
    """The torus link admits no region-crossing-change trivialization."""


class CaseNotCovered(ValueError):
    """No theorem case with an explicit construction applies."""


class TheoremCase(enum.Enum):
    """One variant per parity case of the bound theorems, named by the
    arithmetic shape of q = n*p + a."""

    TWO_BRAID = "p = 2 (exact value)"
    NP_P_ODD = "q = np, p odd"
    NP1_P_ODD = "q = np+1, p odd"
    NP1_P_EVEN_N_ODD = "q = np+1, p even, n odd"
    NP_P_N_EVEN = "q = np, p and n even"
    NP1_P_N_EVEN = "q = np+1, p and n even"
    NP2_P_ODD = "q = np+2, p odd"
    NP2_P_N_EVEN = "q = np+2, p = 0 mod 4, p and n even"
    NPA_EVEN_DIV = "q = np+a, a even, p = 0 mod a, n odd"
    NPA_P_ODD_DIV = "q = np+a, a odd, p = 0 or +-1 mod a, p odd"
    NPA_P_N_EVEN_DIV = "q = np+a, a odd, p = 0 or +-1 mod a, p and n even"
    NPA_P_ODD_2MODA = "q = np+a, a odd, p = 2 mod a, p odd"
    NPA_P_N_EVEN_2MODA = "q = np+a, a odd, p = 2 mod a, p and n even"
    NPA_P_ODD_M2MODA = "q = np+a, a odd, p = -2 mod a, p odd"
    NPA_P_N_EVEN_M2MODA = "q = np+a, a odd, p = -2 mod a, p and n even"
    NPM1_P_ODD = "q = np-1, p odd"
    NPM1_P_N_EVEN = "q = np-1, p and n even"
    NPM2_P_EVEN_N_ODD = "q = np-2, p even, n odd"
    NPM2_P_N_EVEN = "q = np-2, p = 0 mod 4, p and n even"
    NP3_P_EVEN_N_ODD = "q = np+3, p even, n odd"
    NP4_FORMULA = "q = np+4 closed formula"
    NP5_FORMULA = "q = np+5 closed formula"


@dataclasses.dataclass(frozen=True)
class RegionSchedule:
    region_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.region_ids)


@dataclasses.dataclass(frozen=True)
class BoundResult:
    spec: TorusLinkSpec
    case: TheoremCase
    bound: int
    constructible: bool
    certificate: "Certificate | None" = None


@dataclasses.dataclass(frozen=True)
class Certificate:
    schedule: RegionSchedule
    target: BraidWord
    unlink: UnlinkCertificate

    def to_json(self, spec: TorusLinkSpec, case: TheoremCase, bound: int) -> str:
        return json.dumps(
            {
                "p": spec.p,
                "q": spec.q,
                "d": spec.components,
                "case": case.value,
                "bound": bound,
                "regions": list(self.schedule.region_ids),
                "target_word": list(self.target.letters),
                "verdict": self.unlink.verdict.value,
                "jones_unlink_check": self.unlink.jones_matches_unlink,
            }
        )


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"formula {num}/{den} is not an integer")
    return q


def _X_union(kmax: int, p: int) -> list[int]:
    """X_1, ..., X_kmax in order."""
    return [2 * i * (p - 1) - 2 * t for i in range(1, kmax + 1) for t in range(i)]


def _rows(p: int, h: int) -> list[int]:
    """Region ids of the staircase selection on row blocks 1..h, p rows of
    p - 1 crossings each: a mu block each for odd p, a mu.nu double block
    per two blocks for even p (h even)."""
    block = _X_union(p // 2, p)
    if p % 2 == 0:
        c0 = (p - 1) * (2 * p - 1) + 1
        block += [c0 - x for x in _X_union(p // 2 - 1, p)]
    return [i * p * (p - 1) + x for i in range(0, h, 2 - p % 2) for x in block]


def _two_braid(q: int) -> list[int]:
    """Every other bigon: adjacent bigon ids share a crossing."""
    return [2 * k + 1 for k in range((q + 2) // 4)]


# --- schedule tails ------------------------------------------------------
# Each takes (p, a) and returns region ids measured from the end of the
# staircase head, in selection order.


def _no_tail(p: int, a: int) -> list[int]:
    return []


def _back_one_row(p: int, a: int) -> list[int]:
    """q = np - 1 (odd p) or np - 2 (even p): X_1..X_{(p-1)//2}, a row early."""
    return [x - (p - 1) for x in _X_union((p - 1) // 2, p)]


def _np2_tail(p: int, a: int) -> list[int]:
    return [p - 1 - 4 * j for j in range((p + 1) // 4)]


def _ladder_ids(p: int, a: int, batches: int) -> list[int]:
    """``batches`` ladder batches of odd width a, stepping back a crossings."""
    return [x - j * a for j in range(batches) for x in _X_union((a - 1) // 2, p)]


def _div_tail(p: int, a: int) -> list[int]:
    return _ladder_ids(p, a, (p + 1) // a)


def _2mod_tail(p: int, a: int) -> list[int]:
    singles = [p + 4 * k * (p - 1) for k in range((a + 2) // 4)]
    return _ladder_ids(p, a, (p - 2) // a) + singles


def _m2mod_tail(p: int, a: int) -> list[int]:
    batches = (p + 2) // a - 1
    short = [x - batches * a for x in _X_union((a - 3) // 2, p)]
    singles = [(a - 2) * (p - 1) + a - 3 - 4 * k for k in range(a // 4)]
    return _ladder_ids(p, a, batches) + short + singles


def _mu_tail(p: int, a: int) -> list[int]:
    """The mu half of one more double block (even p, after h = n - 1)."""
    return _X_union(p // 2, p)


def _even_ladder_tail(p: int, a: int) -> list[int]:
    c1 = (p + a - 1) * (p - 1) + 1
    rungs = [j * a + c1 - x for j in range(p // a) for x in _X_union((a - 2) // 2, p)]
    return _mu_tail(p, a) + rungs


def _npm2_even_tail(p: int, a: int) -> list[int]:
    c1 = (2 * p - 3) * (p - 1) + 2
    mirror = [c1 - x for x in _X_union((p - 4) // 2, p)]
    singles = [(p + 5 + 4 * i) * (p - 1) for i in range(p // 4 - 1)]
    return _mu_tail(p, a) + mirror + singles


def _np3_tail(p: int, a: int) -> list[int]:
    singles = [(p + 2) * (p - 1) - 2 - 6 * i for i in range((p + 2) // 6)]
    return _mu_tail(p, a) + singles


# --- bound formulas and printed target words ----------------------------
# The ``_*_bound`` formulas take (p, n, a) like the case predicates.


def _base(p: int, n: int) -> int:
    """The share of n staircase row blocks: n(p^2-1)/8 for odd p, np^2/8
    for even p."""
    return _exact_div(n * (p * p - p % 2), 8)


def _ladder(a: int, batches: int) -> int:
    """The share of ``batches`` ladder batches of odd width a."""
    return batches * _exact_div(a * a - 1, 8)


def _staircase_bound(p: int, n: int, a: int) -> int:
    return _base(p, n)


def _div_bound(p: int, n: int, a: int) -> int:
    return _base(p, n) + _ladder(a, (p + 1) // a)


def _2mod_bound(p: int, n: int, a: int) -> int:
    return _base(p, n) + _ladder(a, (p - 2) // a) + (a + 2) // 4


def _m2mod_bound(p: int, n: int, a: int) -> int:
    return _base(p, n) + _ladder(a, (p + 2) // a - 1) + _ladder(a - 2, 1) + a // 4


def _np4_bound(p: int, n: int, a: int) -> int:
    return _base(p, n) + ((p + 1) // 2 if p % 8 in (5, 7) else p // 2)


def _np5_bound(p: int, n: int, a: int) -> int:
    r = p % 5
    if r in (0, 1, 4):
        return _base(p, n) + 3 * ((p + 1) // 5)
    return _base(p, n) + _exact_div(3 * p + (1 if r == 3 else -1), 5)


def _mn(p: int) -> BraidWord:
    return staircase_word(p) * mirror_staircase_word(p)


def _power(w: BraidWord, k: int) -> BraidWord:
    return BraidWord(w.strands, w.letters * k)


# --- the case registry ---------------------------------------------------


class _Case(NamedTuple):
    """One theorem case: whether it applies, its bound, its schedule
    (h = n + ``head`` staircase row blocks, then ``tail``, which is None
    for a closed formula) and the target word its proof prints (None if
    the proof prints none).  ``tail`` takes (p, a), the others (p, n, a)
    with q = n*p + a."""

    applies: Callable[[int, int, int], bool]
    bound: Callable[[int, int, int], int]
    head: int
    tail: Callable[[int, int], list[int]] | None
    target: Callable[[int, int, int], BraidWord] | None


_CASES = {
    TheoremCase.TWO_BRAID: _Case(
        lambda p, n, a: p == 2, lambda p, n, a: (n * p + a + 2) // 4,
        0, _no_tail, None),  # scheduled by _two_braid, not by the head and tail
    TheoremCase.NP_P_ODD: _Case(
        lambda p, n, a: a == 0 and p % 2, _staircase_bound, 0, _no_tail,
        lambda p, n, a: _power(staircase_word(p), n)),
    TheoremCase.NP1_P_ODD: _Case(
        lambda p, n, a: a == 1 and p % 2, _staircase_bound, 0, _no_tail,
        lambda p, n, a: _power(staircase_word(p), n) * mu(p, 1)),
    TheoremCase.NP1_P_EVEN_N_ODD: _Case(
        lambda p, n, a: a == 1 and p % 2 == 0 and n % 2,
        lambda p, n, a: _exact_div(n * p * p + 2 * p, 8), -1, _mu_tail,
        lambda p, n, a: (
            _power(_mn(p), (n - 1) // 2) * staircase_segment(p, 1, p) * mu(p, p))),
    TheoremCase.NP_P_N_EVEN: _Case(
        lambda p, n, a: a == 0 and p % 2 == n % 2 == 0, _staircase_bound,
        0, _no_tail, lambda p, n, a: _power(_mn(p), n // 2)),
    TheoremCase.NP1_P_N_EVEN: _Case(
        lambda p, n, a: a == 1 and p % 2 == n % 2 == 0, _staircase_bound,
        0, _no_tail, lambda p, n, a: _power(_mn(p), n // 2) * mu(p, 1)),
    TheoremCase.NP2_P_ODD: _Case(
        lambda p, n, a: a == 2 and p % 2,
        lambda p, n, a: _base(p, n) + (p + 1) // 4, 0, _np2_tail, None),
    TheoremCase.NP2_P_N_EVEN: _Case(
        lambda p, n, a: a == 2 and p % 4 == n % 2 == 0,
        lambda p, n, a: _exact_div(n * p * p + 2 * p, 8), 0, _np2_tail, None),
    TheoremCase.NPA_EVEN_DIV: _Case(
        lambda p, n, a: a >= 2 and a % 2 == 0 and p % a == 0 and n % 2,
        lambda p, n, a: _exact_div(n * p * p + a * p, 8), -1, _even_ladder_tail,
        None),
    TheoremCase.NPA_P_ODD_DIV: _Case(
        lambda p, n, a: a >= 3 and a % 2 and p % a in (0, 1, a - 1) and p % 2,
        _div_bound, 0, _div_tail, None),
    TheoremCase.NPA_P_N_EVEN_DIV: _Case(
        lambda p, n, a: (
            a >= 3 and a % 2 and p % a in (0, 1, a - 1) and p % 2 == n % 2 == 0),
        _div_bound, 0, _div_tail, None),
    # for a = 3, p = 2 mod a is p = -1 mod a, a DIV case
    TheoremCase.NPA_P_ODD_2MODA: _Case(
        lambda p, n, a: a >= 5 and a % 2 and p % a == 2 and p % 2,
        _2mod_bound, 0, _2mod_tail, None),
    TheoremCase.NPA_P_N_EVEN_2MODA: _Case(
        lambda p, n, a: a >= 5 and a % 2 and p % a == 2 and p % 2 == n % 2 == 0,
        _2mod_bound, 0, _2mod_tail, None),
    TheoremCase.NPA_P_ODD_M2MODA: _Case(
        lambda p, n, a: a >= 5 and a % 2 and p % a == a - 2 and p % 2,
        _m2mod_bound, 0, _m2mod_tail, None),
    TheoremCase.NPA_P_N_EVEN_M2MODA: _Case(
        lambda p, n, a: a >= 5 and a % 2 and p % a == a - 2 and p % 2 == n % 2 == 0,
        _m2mod_bound, 0, _m2mod_tail, None),
    # q = n1*p - 1 and q = n1*p - 2 with n1 = n + 1
    TheoremCase.NPM1_P_ODD: _Case(
        lambda p, n, a: a == p - 1 and p % 2, lambda p, n, a: _base(p, n + 1),
        0, _back_one_row,
        lambda p, n, a: _power(staircase_word(p), n) * staircase_segment(p, 2, p)),
    TheoremCase.NPM1_P_N_EVEN: _Case(
        lambda p, n, a: a == p - 1 and p % 2 == 0 and n % 2,
        lambda p, n, a: _base(p, n + 1), 1, _no_tail,
        lambda p, n, a: _power(_mn(p), (n - 1) // 2) * staircase_word(p)
        * mirror_staircase_segment(p, 1, p - 1)),
    TheoremCase.NPM2_P_EVEN_N_ODD: _Case(
        lambda p, n, a: a == p - 2 and p % 2 == n % 2 == 0,
        lambda p, n, a: _exact_div((n + 1) * p * p - 2 * p, 8), 0, _back_one_row,
        lambda p, n, a: _power(_mn(p), n // 2) * staircase_segment(p, 2, p - 1)),
    TheoremCase.NPM2_P_N_EVEN: _Case(
        lambda p, n, a: a == p - 2 and p % 4 == 0 and n % 2,
        lambda p, n, a: _exact_div((n + 1) * p * p - 2 * p, 8), -1, _npm2_even_tail,
        None),
    TheoremCase.NP3_P_EVEN_N_ODD: _Case(
        lambda p, n, a: a == 3 and p % 2 == 0 and n % 2,
        lambda p, n, a: _exact_div(n * p * p + 2 * p, 8) + (p + 2) // 6,
        -1, _np3_tail,
        lambda p, n, a: _power(_mn(p), (n - 1) // 2) * staircase_word(p)
        * three_block_word(p)),
    TheoremCase.NP4_FORMULA: _Case(
        lambda p, n, a: a == 4 and (p % 2 or p % 4 == 0 and (n % 2 or p % 8 == 0)),
        _np4_bound, 0, None, None),
    TheoremCase.NP5_FORMULA: _Case(
        lambda p, n, a: a == 5 and (p % 2 or n % 2 == 0), _np5_bound, 0, None, None),
}


def _applies(case: TheoremCase, p: int, n: int, a: int) -> bool:
    """Whether the case covers K(p, n*p + a).  The 2-braid value is exact,
    so it is the only case for p = 2; every other case needs q >= p."""
    if p == 2:
        return case is TheoremCase.TWO_BRAID
    return n >= 1 and bool(_CASES[case].applies(p, n, a))


def _record(spec: TorusLinkSpec, case: TheoremCase) -> tuple[_Case, int, int]:
    """The registry record of a case that applies to ``spec``, with (n, a)."""
    n, a = divmod(spec.q, spec.p)
    if not _applies(case, spec.p, n, a):
        raise CaseNotCovered(f"{case} does not apply to K({spec.p},{spec.q})")
    return _CASES[case], n, a


# --- public api --------------------------------------------------------


def bound(spec: TorusLinkSpec) -> list[BoundResult]:
    """All applicable theorem bounds, ascending; raises NotProperError for
    links that no region crossing change sequence can trivialize."""
    if not is_proper(spec.p, spec.q):
        raise NotProperError(
            f"K({spec.p},{spec.q}) is not proper: its components have odd "
            "total linking number"
        )
    p = spec.p
    n, a = divmod(spec.q, p)
    # in enum order, sorted stably: among equal bounds the earlier case is
    # listed first and is the one verify_bound certifies
    results = [
        BoundResult(spec, case, _CASES[case].bound(p, n, a), _CASES[case].tail is not None)
        for case in TheoremCase
        if _applies(case, p, n, a)
    ]
    results.sort(key=lambda r: (r.bound, not r.constructible))
    trivial = spec.regions // 2
    for r in results:
        if r.bound > trivial:
            raise AssertionError(
                f"case {r.case} exceeds the trivial bound {trivial}"
            )
    return results


def _schedule_ids(case: TheoremCase, p: int, n: int, a: int) -> list[int]:
    """A constructible case's region ids in selection order: h = n + delta
    staircase row blocks, then the case's tail after them."""
    if case is TheoremCase.TWO_BRAID:
        return _two_braid(n * p + a)
    rec = _CASES[case]
    h = n + rec.head
    return _rows(p, h) + [h * p * (p - 1) + t for t in rec.tail(p, a)]


def explicit_schedule(spec: TorusLinkSpec, case: TheoremCase) -> RegionSchedule:
    """The construction's literal region ids for a constructible case."""
    rec, n, a = _record(spec, case)
    if rec.tail is None:
        raise CaseNotCovered(f"{case} is a closed formula without a schedule")
    ids = _schedule_ids(case, spec.p, n, a)
    if len(set(ids)) != len(ids):
        raise AssertionError(f"{case}: schedule repeats a region id")
    value = rec.bound(spec.p, n, a)
    if len(ids) != value:
        raise AssertionError(f"{case}: schedule size {len(ids)} != bound {value}")
    if any(not 1 <= r <= spec.crossings for r in ids):
        raise AssertionError(f"{case}: region id out of range")
    return RegionSchedule(tuple(sorted(ids)))


def chosen_case(spec: TorusLinkSpec) -> BoundResult:
    """The case :func:`verify_bound` certifies and ``regionum schedule``
    prints: the first constructible case of the smallest bound."""
    results = bound(spec)
    if not results:
        raise CaseNotCovered(f"no theorem case covers K({spec.p},{spec.q})")
    best_value = results[0].bound
    chosen = next(
        (r for r in results if r.constructible and r.bound == best_value), None
    )
    if chosen is None:
        raise CaseNotCovered(
            f"smallest bound {best_value} for K({spec.p},{spec.q}) has no "
            "constructible case of equal value"
        )
    return chosen


def construct(spec: TorusLinkSpec, case: TheoremCase) -> tuple[RegionSchedule, BraidWord]:
    """The case's schedule and the target word it makes on the standard
    diagram, built once and only within ``MAX_CROSSINGS``.  The word must
    be the one the case's proof prints, if any: a failed check raises
    AssertionError, as the construction would be wrong."""
    refuse_over("MAX_CROSSINGS", spec.crossings, "crossings", f"K({spec.p},{spec.q})")
    schedule = explicit_schedule(spec, case)
    rec, n, a = _record(spec, case)
    diagram = close_braid(toric_braid(spec.p, spec.q))
    target = diagram.region_crossing_changes(schedule.region_ids).word()
    if rec.target is not None and rec.target(spec.p, n, a) != target:
        raise AssertionError(f"{case}: schedule does not produce the expected target word")
    return schedule, target


def target_word(spec: TorusLinkSpec, case: TheoremCase) -> BraidWord:
    """The case's target word on the standard diagram, checked by :func:`construct`."""
    return construct(spec, case)[1]


def flip_vector_for(spec: TorusLinkSpec, case: TheoremCase) -> int:
    """Bit c set iff crossing c differs in sign between the torus braid
    and the case's target word: the torus braid is positive, so iff
    letter c of the target is negative."""
    return sum(1 << c for c, x in enumerate(target_word(spec, case).letters) if x < 0)


def verify_bound(spec: TorusLinkSpec) -> BoundResult:
    """End-to-end certificate for the best constructible bound: the case
    of :func:`chosen_case`, its checked :func:`construct`, and the target's
    closure certified trivial.  A Refuted verdict raises: it would mean the
    construction is wrong, which must never pass silently."""
    chosen = chosen_case(spec)
    schedule, target = construct(spec, chosen.case)
    unlink = certify_unlink(target)
    if unlink.verdict is Verdict.REFUTED:
        raise AssertionError(
            f"{chosen.case}: target closure of K({spec.p},{spec.q}) is "
            "provably nontrivial; construction invalid"
        )
    cert = Certificate(schedule=schedule, target=target, unlink=unlink)
    return dataclasses.replace(chosen, certificate=cert)


def incidence_rank_data(diagram: PlanarDiagram) -> tuple[int, int]:
    """(rank, nullity) of the region incidence system over GF(2)."""
    rank = row_reduce(diagram.rows).rank
    return rank, len(diagram.rows) - rank
