import hashlib
import json
from functools import lru_cache
from math import gcd

import pytest

from _oracles import (
    SCHEDULE_BUILDERS,
    _mn_rows,
    _mu_rows,
    min_weight_solution,
    select_bits,
)
from regionum import bounds
from regionum.bounds import (
    CaseNotCovered,
    NotProperError,
    TheoremCase,
    bound,
    construct,
    explicit_schedule,
    flip_vector_for,
    incidence_rank_data,
    target_word,
    verify_bound,
)
from regionum.braid import handle_reduce
from regionum.diagram import toric_diagram
from regionum.invariants import Verdict, certify_unlink
from regionum.limits import MAX_STRANDS
from regionum.properness import TorusLinkSpec, is_proper
from regionum.templates import mirror_staircase_word, staircase_word


def test_not_proper_raises():
    with pytest.raises(NotProperError):
        bound(TorusLinkSpec(2, 2))
    with pytest.raises(NotProperError):
        bound(TorusLinkSpec(4, 4))


def test_results_sorted_and_below_trivial_bound():
    for p in range(2, 7):
        for q in range(p + 1, 4 * p):
            if not is_proper(p, q):
                continue
            results = bound(TorusLinkSpec(p, q))
            values = [r.bound for r in results]
            assert values == sorted(values)
            assert values[0] <= ((p - 1) * q + 2) // 2


@pytest.mark.parametrize(
    "p,q,expected",
    [
        # 2-braids: exact value floor((q+2)/4), confirmed by brute search
        (2, 3, 1),
        (2, 7, 2),
        (2, 13, 3),
        # small knots/links whose minimum was matched by exhaustive search
        (3, 3, 1),
        (3, 4, 1),
        (4, 5, 3),
    ],
)
def test_minimum_bound_frozen_values(p, q, expected):
    assert bound(TorusLinkSpec(p, q))[0].bound == expected


def test_schedule_ids_distinct_and_in_range():
    for p, q in [(3, 4), (4, 5), (5, 7), (6, 8), (2, 9)]:
        spec = TorusLinkSpec(p, q)
        best = next(r for r in bound(spec) if r.constructible)
        schedule = explicit_schedule(spec, best.case)
        diagram = toric_diagram(p, q)
        assert len(schedule) == best.bound
        assert len(set(schedule.region_ids)) == len(schedule)
        assert all(1 <= r <= len(diagram.rows) for r in schedule.region_ids)


def test_schedule_application_yields_target_word():
    for p, q in [(3, 4), (3, 5), (4, 5), (5, 6), (6, 7)]:
        spec = TorusLinkSpec(p, q)
        best = next(r for r in bound(spec) if r.constructible)
        schedule = explicit_schedule(spec, best.case)
        diagram = toric_diagram(p, q)
        changed = diagram.region_crossing_changes(schedule.region_ids)
        assert changed.word() == target_word(spec, best.case)


def test_target_word_closure_is_trivial_for_knots():
    # triviality is a closure property: it needs Markov moves, not just
    # the braid word problem
    for p, q in [(3, 4), (3, 5), (4, 5), (5, 6)]:
        spec = TorusLinkSpec(p, q)
        best = next(r for r in bound(spec) if r.constructible)
        cert = certify_unlink(target_word(spec, best.case))
        assert cert.verdict is Verdict.CERTIFIED


def test_flip_vector_realizable_at_bound_weight():
    for p, q in [(3, 4), (4, 5), (5, 6), (4, 10)]:
        spec = TorusLinkSpec(p, q)
        best = next(r for r in bound(spec) if r.constructible)
        flips = flip_vector_for(spec, best.case)
        diagram = toric_diagram(p, q)
        realized = min_weight_solution(diagram.rows, flips)
        assert realized is not None
        region_ids = [k + 1 for k in select_bits(realized)]
        assert len(region_ids) <= best.bound
        assert diagram.region_crossing_changes(region_ids).word() == (
            target_word(spec, best.case)
        )


def test_case_that_does_not_apply_is_refused():
    # K(3,4) is q = np+1 and K(3,5) is q = np+2: neither case applies
    with pytest.raises(CaseNotCovered):
        target_word(TorusLinkSpec(3, 4), TheoremCase.NP_P_N_EVEN)
    with pytest.raises(CaseNotCovered):
        flip_vector_for(TorusLinkSpec(3, 5), TheoremCase.NP1_P_ODD)
    with pytest.raises(CaseNotCovered):
        explicit_schedule(TorusLinkSpec(3, 5), TheoremCase.NP1_P_ODD)


def _swap_region(monkeypatch, k, delta):
    """Make every schedule take region id + ``delta`` for its k-th region."""
    schedule_ids = bounds._schedule_ids

    def swapped(case, p, n, a):
        ids = schedule_ids(case, p, n, a)
        ids[k] += delta
        return ids

    monkeypatch.setattr(bounds, "_schedule_ids", swapped)


def test_a_tail_one_region_short_fails_the_size_check(monkeypatch):
    case = TheoremCase.NP2_P_ODD
    record = bounds._CASES[case]
    short = record._replace(tail=lambda p, a: record.tail(p, a)[:-1])
    monkeypatch.setitem(bounds._CASES, case, short)
    with pytest.raises(AssertionError, match="schedule size 3 != bound 4"):
        verify_bound(TorusLinkSpec(5, 7))


@pytest.mark.parametrize("delta", [-1, 1])
def test_a_neighbour_swap_on_k34_is_caught_only_by_the_printed_target(monkeypatch, delta):
    # K(3,4)'s one region swapped for a neighbour still unknots it
    spec, case = TorusLinkSpec(3, 4), TheoremCase.NP1_P_ODD
    _swap_region(monkeypatch, 0, delta)
    with pytest.raises(AssertionError, match="does not produce the expected target word"):
        verify_bound(spec)
    monkeypatch.setitem(bounds._CASES, case, bounds._CASES[case]._replace(target=None))
    result = verify_bound(spec)
    assert result.case is case
    assert result.certificate.schedule.region_ids == (4 + delta,)
    assert result.certificate.unlink.verdict is Verdict.CERTIFIED


def test_neighbour_swaps_on_k57_are_refuted_unless_they_unknot_it(monkeypatch):
    # NP2_P_ODD prints no target, so the certifier must catch a wrong schedule
    spec = TorusLinkSpec(5, 7)
    assert verify_bound(spec).certificate.schedule.region_ids == (8, 14, 16, 24)
    refuted, certified = [], []
    for k in range(4):
        for delta in (-1, 1):
            with monkeypatch.context() as m:
                _swap_region(m, k, delta)
                try:
                    result = verify_bound(spec)
                except AssertionError as exc:
                    assert "provably nontrivial" in str(exc)
                    refuted.append((k, delta))
                else:
                    assert result.certificate.unlink.verdict is Verdict.CERTIFIED
                    certified.append((k, delta))
    assert len(refuted) == 6
    assert certified == [(3, -1), (3, 1)]


def test_verify_bound_produces_certificate():
    for p, q in [(2, 5), (3, 4), (4, 5), (5, 6), (6, 7), (3, 9)]:
        spec = TorusLinkSpec(p, q)
        result = verify_bound(spec)
        cert = result.certificate
        assert cert is not None
        assert len(cert.schedule) == result.bound
        assert cert.unlink.verdict is not Verdict.REFUTED
        if spec.is_knot:
            assert cert.unlink.verdict is Verdict.CERTIFIED
        payload = json.loads(cert.to_json(spec, result.case, result.bound))
        assert payload["p"] == p and payload["q"] == q
        assert payload["bound"] == result.bound
        assert payload["regions"] == list(cert.schedule.region_ids)
        assert payload["verdict"] in ("certified", "inconclusive")


def test_verify_bound_certifies_above_the_strand_guard():
    # 13 strands: Jones is skipped, the Alexander refuter is the only
    # invariant check, and the reduction engine certifies the target
    result = verify_bound(TorusLinkSpec(MAX_STRANDS + 1, MAX_STRANDS + 2))
    unlink = result.certificate.unlink
    assert unlink.verdict is Verdict.CERTIFIED
    assert unlink.jones_matches_unlink is None


@pytest.mark.parametrize("q", [14, 30])
def test_npm2_schedule_certifies_for_p8(q):
    # q = np - 2 with p = 0 mod 4: the single regions after the staircase
    # blocks must land on faces that keep the target trivial for p >= 8
    result = verify_bound(TorusLinkSpec(8, q))
    assert result.case is TheoremCase.NPM2_P_N_EVEN
    assert result.certificate.unlink.verdict is Verdict.CERTIFIED
    assert result.certificate.unlink.jones_matches_unlink is True


@pytest.mark.parametrize(
    "p,q,case",
    [
        (7, 9, TheoremCase.NP2_P_ODD),
        (7, 12, TheoremCase.NPA_P_ODD_2MODA),
        (8, 27, TheoremCase.NP3_P_EVEN_N_ODD),
        (8, 9, TheoremCase.NP1_P_EVEN_N_ODD),
        (8, 10, TheoremCase.NPA_EVEN_DIV),
        (8, 15, TheoremCase.NPM1_P_N_EVEN),
        (8, 16, TheoremCase.NP_P_N_EVEN),
        (8, 17, TheoremCase.NP1_P_N_EVEN),
        (8, 18, TheoremCase.NP2_P_N_EVEN),
        (8, 19, TheoremCase.NPA_P_N_EVEN_DIV),
        (8, 22, TheoremCase.NPM2_P_EVEN_N_ODD),
        (9, 10, TheoremCase.NP1_P_ODD),
        (9, 12, TheoremCase.NPA_P_ODD_DIV),
        (9, 17, TheoremCase.NPM1_P_ODD),
        (9, 18, TheoremCase.NP_P_ODD),
    ],
)
def test_schedule_certifies_beyond_the_grid(p, q, case):
    # the acceptance grid stops at p = 6; a schedule can go wrong only for
    # larger p, as the NPM2 singles did at p = 8
    result = verify_bound(TorusLinkSpec(p, q))
    assert result.case is case
    assert result.certificate.unlink.verdict is Verdict.CERTIFIED
    assert result.certificate.unlink.jones_matches_unlink is True


def test_incidence_rank_law():
    # region space rank c - d + 1, nullity d + 1, on the standard diagrams
    for p, q in [(2, 3), (3, 4), (2, 4), (3, 3), (4, 6), (4, 4)]:
        diagram = toric_diagram(p, q)
        d = gcd(p, q)
        rank, nullity = incidence_rank_data(diagram)
        assert rank == diagram.crossings - d + 1
        assert nullity == d + 1


# sha256 over every spec p = 2..15, p < q < 8p (819 specs, 70 not proper) of
# each applicable case's value, bound, constructibility and region ids.
CASE_TABLE_DIGEST = "21926915289852284e87594944b8a13bd3892a9b49d133dae535ce0920bf0544"


def test_case_table_golden_digest():
    h = hashlib.sha256()
    for p in range(2, 16):
        for q in range(p + 1, 8 * p):
            spec = TorusLinkSpec(p, q)
            try:
                results = bound(spec)
            except NotProperError:
                rows = None
            else:
                rows = [
                    [
                        r.case.value,
                        r.bound,
                        r.constructible,
                        list(explicit_schedule(spec, r.case).region_ids)
                        if r.constructible
                        else None,
                    ]
                    for r in results
                ]
            h.update(json.dumps([p, q, rows]).encode())
    assert h.hexdigest() == CASE_TABLE_DIGEST


def test_tied_bounds_keep_case_order():
    # K(4,10) gets 5 from two cases; the earlier theorem case is chosen
    results = bound(TorusLinkSpec(4, 10))
    assert [r.case for r in results if r.constructible][:2] == [
        TheoremCase.NP2_P_N_EVEN,
        TheoremCase.NPM2_P_EVEN_N_ODD,
    ]
    assert verify_bound(TorusLinkSpec(4, 10)).case is TheoremCase.NP2_P_N_EVEN


# --- schedules as a staircase head plus an n-free tail ------------------


@lru_cache(maxsize=None)
def _constructible() -> tuple[tuple[TheoremCase, int, int, int], ...]:
    """Every constructible (case, p, n, a) with q = n*p + a, p = 3..15 and
    p < q < 8p."""
    found = []
    for p in range(3, 16):
        for q in range(p + 1, 8 * p):
            try:
                results = bound(TorusLinkSpec(p, q))
            except NotProperError:
                continue
            found += [(r.case, p, *divmod(q, p)) for r in results if r.constructible]
    return tuple(found)


def _block_step(p: int) -> int:
    """Staircase row blocks per step of the block lemma: a mu block for odd
    p, a mu.nu double block for even p."""
    return 1 if p % 2 else 2


def test_composed_schedules_match_the_reference_builders():
    combos = _constructible()
    assert len(combos) == 542
    combos += tuple(
        (TheoremCase.TWO_BRAID, 2, *divmod(q, 2)) for q in range(3, 16) if is_proper(2, q)
    )
    for case, p, n, a in combos:
        composed = bounds._schedule_ids(case, p, n, a)
        assert composed == SCHEDULE_BUILDERS[case](p, n, a), (case, p, n * p + a)


def test_block_lemma_puts_one_staircase_block_in_front():
    for case, p, n, a in _constructible():
        s = _block_step(p)
        first = _mu_rows(p, 1) if p % 2 else _mn_rows(p, 1)
        shift = s * p * (p - 1)
        grown = bounds._schedule_ids(case, p, n + s, a)
        shifted = [shift + r for r in bounds._schedule_ids(case, p, n, a)]
        assert grown == first + shifted, (case, p, n * p + a)


def test_block_lemma_leaves_the_last_row_free():
    for case, p, n, a in _constructible():
        crossings = (p - 1) * (n * p + a)
        ids = bounds._schedule_ids(case, p, n, a)
        assert max(ids) <= crossings - (p - 1), (case, p, n * p + a)


def _block_word(p: int):
    """The target word of one step's staircase block."""
    if p % 2:
        return staircase_word(p)
    return staircase_word(p) * mirror_staircase_word(p)


def test_block_lemma_prefixes_a_trivial_block_word():
    targets = {
        (case, p, n * p + a): construct(TorusLinkSpec(p, n * p + a), case)[1]
        for case, p, n, a in _constructible()
    }
    pairs = 0
    for (case, p, q), target in targets.items():
        grown = targets.get((case, p, q + _block_step(p) * p))
        if grown is not None:
            assert grown == _block_word(p) * target, (case, p, q)
            pairs += 1
    assert pairs == 429
    for p in range(3, 16):
        assert handle_reduce(_block_word(p)).letters == (), p
