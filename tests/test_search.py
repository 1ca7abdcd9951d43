import pytest

import _oracles
from regionum.bounds import NotProperError
from regionum.braid import BraidWord, toric_braid
from regionum.diagram import close_braid
from regionum.invariants import Verdict, alexander_refutes, certify_unlink
from regionum.search import MAX_REGIONS, brute_force_uR, sharpness_probe
from regionum.properness import TorusLinkSpec


def test_two_braid_exact_values():
    for q, expected in [(3, 1), (5, 1), (7, 2)]:
        report = brute_force_uR(close_braid(toric_braid(2, q)), expected)
        assert report.exact == expected
        assert report.inconclusive == 0


def test_witness_actually_trivializes():
    diagram = close_braid(toric_braid(2, 7))
    report = brute_force_uR(diagram, 2)
    word = diagram.region_crossing_changes(report.witness).word()
    assert abs(word.writhe) <= 1  # trivial 2-braid closure criterion


def test_witness_certifies_on_four_strands():
    diagram = close_braid(toric_braid(4, 5))
    report = brute_force_uR(diagram, 3)
    assert report.exact == 3
    word = diagram.region_crossing_changes(report.witness).word()
    assert certify_unlink(word).verdict is Verdict.CERTIFIED


def test_search_matches_certify_every_subset_oracle():
    # the 29 probe specs: p = 2..5, at most 16 crossings
    specs = [
        TorusLinkSpec(p, q)
        for p in range(2, 6)
        for q in range(2, 17)
        if (p - 1) * q <= 16
    ]
    assert len(specs) == 29
    checked = []
    for spec in specs:
        probe = sharpness_probe(spec)
        if not probe.proper:
            continue
        k_max = probe.theorem_bound
        if k_max is None:
            k_max = (spec.crossings + 2) // 2
        diagram = close_braid(toric_braid(spec.p, spec.q))
        expected, words = _oracles.brute_force_uR(diagram, k_max)
        assert probe.search == expected, spec
        checked += words
    # every word Alexander refutes, Jones refutes too
    assert len(checked) == 656
    by_jones = {w for w, cert in checked if cert.verdict is Verdict.REFUTED}
    by_alexander = {w for w, _ in checked if alexander_refutes(w)}
    assert by_alexander <= by_jones
    assert (len(by_alexander), len(by_jones)) == (642, 643)


def test_zero_changes_needed_for_trivial_diagram():
    report = brute_force_uR(close_braid(BraidWord(2, (1,))), 2)
    assert report.exact == 0
    assert report.witness == ()


def test_not_proper_diagram_rejected():
    with pytest.raises(NotProperError):
        brute_force_uR(close_braid(toric_braid(2, 2)), 1)


def test_region_count_guard():
    with pytest.raises(ValueError):
        brute_force_uR(close_braid(toric_braid(2, 40)), 1)
    assert MAX_REGIONS < 42


def test_lower_bound_when_budget_exhausted():
    report = brute_force_uR(close_braid(toric_braid(2, 9)), 1)
    assert report.exact is None
    assert report.lower_bound == 2
    assert report.witness is None


def test_probe_matches_bound_on_small_knots():
    for p, q in [(3, 3), (3, 4)]:
        probe = sharpness_probe(TorusLinkSpec(p, q))
        assert probe.proper
        assert probe.search.exact == probe.theorem_bound == 1
        assert not probe.improves_bound


def test_probe_reports_non_proper_instead_of_raising():
    probe = sharpness_probe(TorusLinkSpec(4, 4))
    assert not probe.proper
    assert probe.search is None
    assert not probe.improves_bound


def test_probe_crossing_guard():
    with pytest.raises(ValueError):
        sharpness_probe(TorusLinkSpec(3, 9))
