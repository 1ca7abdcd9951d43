import random
from itertools import combinations

import pytest

import _oracles
from _words import random_connected_word
from regionum import search
from regionum.bounds import NotProperError
from regionum.braid import BraidWord, closure_components, toric_braid
from regionum.diagram import close_braid
from regionum.invariants import (
    UnlinkCertificate,
    Verdict,
    alexander_refutes,
    certify_unlink,
)
from regionum.limits import MAX_SEARCH_REGIONS as MAX_REGIONS
from regionum.search import (
    _rotation_period,
    brute_force_uR,
    sharpness_probe,
)
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


# the probe set: p = 2..5, at most 16 crossings
PROBE_SPECS = [
    TorusLinkSpec(p, q) for p in range(2, 6) for q in range(2, 17) if (p - 1) * q <= 16
]


def _record_calls(monkeypatch, name):
    """Wrap ``search.<name>`` so that it records each word it is called on."""
    calls = []
    f = getattr(search, name)

    def recorded(w):
        calls.append(w)
        return f(w)

    monkeypatch.setattr(search, name, recorded)
    return calls


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


def test_rotation_period():
    for p, q in [(2, 5), (3, 4), (4, 6), (5, 3)]:
        assert _rotation_period(toric_braid(p, q).letters) == p - 1
    assert _rotation_period((1, 2, -1, 2)) == 4
    assert _rotation_period((1, -2, 1, -2, 1, -2)) == 2


def _inside_window(w):
    """|writhe| <= strands - components: true of every braid whose closure
    is the unlink (Morton; Franks-Williams)."""
    return abs(w.writhe) <= w.strands - closure_components(w)


def _rotations(letters):
    return {letters[j:] + letters[:j] for j in range(len(letters))}


def test_memo_reuses_only_refutations(monkeypatch):
    # Find a subset word that is a rotation of an earlier, different
    # subset word; let the certifier be inconclusive on the earlier one
    # and certify the later one.  Had the memo stored the inconclusive
    # class, the certified rotation would never be tried.
    diagram = close_braid(toric_braid(3, 4))
    k_max = 3
    seen = set()
    for subset in (
        s for k in range(k_max + 1)
        for s in combinations(range(1, len(diagram.rows) + 1), k)
    ):
        letters = diagram.region_crossing_changes(subset).word().letters
        if (_rotations(letters) - {letters}) & seen:
            break
        seen.add(letters)
    else:
        pytest.fail("no subset word is a rotation of an earlier one")
    certified, inconclusive = letters, _rotations(letters) - {letters}

    def fake_certify(w):
        if w.letters == certified:
            verdict = Verdict.CERTIFIED
        elif w.letters in inconclusive:
            verdict = Verdict.INCONCLUSIVE
        else:
            verdict = Verdict.REFUTED
        return UnlinkCertificate(verdict, 1, None, ())

    monkeypatch.setattr(search, "refutes_unlink", lambda *args: False)
    monkeypatch.setattr(search, "certify_unlink", fake_certify)
    monkeypatch.setattr(_oracles, "certify_unlink", fake_certify)
    report = brute_force_uR(diagram, k_max)
    expected, _ = _oracles.brute_force_uR(diagram, k_max)
    assert report == expected
    assert report.witness == subset
    # the inconclusive rotations have the witness's size, so it is exact
    assert report.inconclusive >= 1
    assert report.exact == len(subset)


@pytest.mark.parametrize("undecided_size", [1, 2])
def test_exact_unless_an_undecided_subset_is_smaller(monkeypatch, undecided_size):
    # The certifier is inconclusive on the first subset of undecided_size
    # whose word opens a new rotation class, certifies the first size-2
    # subset after it that opens one, and refutes every other word.  Only
    # a smaller undecided subset leaves the witness's size unproven.  Both
    # words lie inside the writhe window, as a sound certifier's would:
    # the search refutes the others before any certifier sees them, and
    # the oracle, which has no window, must give the same report.
    diagram = close_braid(toric_braid(3, 4))
    ids = range(1, len(diagram.rows) + 1)
    seen, picked = set(), []
    for subset in (s for k in range(3) for s in combinations(ids, k)):
        word = diagram.region_crossing_changes(subset).word()
        key = min(_rotations(word.letters))
        size = 2 if picked else undecided_size
        if (
            key not in seen
            and len(subset) == size
            and len(picked) < 2
            and _inside_window(word)
        ):
            picked.append((subset, key))
        seen.add(key)
    (_, undecided), (witness, certified) = picked

    def fake_certify(w):
        key = min(_rotations(w.letters))
        if key == certified:
            verdict = Verdict.CERTIFIED
        elif key == undecided:
            verdict = Verdict.INCONCLUSIVE
        else:
            verdict = Verdict.REFUTED
        return UnlinkCertificate(verdict, 1, None, ())

    monkeypatch.setattr(search, "refutes_unlink", lambda *args: False)
    monkeypatch.setattr(search, "certify_unlink", fake_certify)
    monkeypatch.setattr(_oracles, "certify_unlink", fake_certify)
    report = brute_force_uR(diagram, 3)
    expected, _ = _oracles.brute_force_uR(diagram, 3)
    assert report == expected
    assert report.witness == witness
    assert report.inconclusive >= 1
    assert report.lower_bound == undecided_size
    assert report.exact == (2 if undecided_size == 2 else None)


def test_lower_bound_only_when_every_certified_word_is_undecided(monkeypatch):
    # No witness, but undecided subsets: the report is a lower bound at
    # the first undecided subset's size.  The certifier is inconclusive on
    # every word inside the writhe window and refutes the rest, so the
    # search, which refutes those itself, only ever hears inconclusive,
    # and the oracle, which has no window, must give the same report.
    diagram = close_braid(toric_braid(3, 4))

    def fake_certify(w):
        verdict = Verdict.INCONCLUSIVE if _inside_window(w) else Verdict.REFUTED
        return UnlinkCertificate(verdict, 1, None, ())

    monkeypatch.setattr(search, "refutes_unlink", lambda *args: False)
    monkeypatch.setattr(search, "certify_unlink", fake_certify)
    monkeypatch.setattr(_oracles, "certify_unlink", fake_certify)
    certified = _record_calls(monkeypatch, "certify_unlink")
    report = brute_force_uR(diagram, 3)
    expected, _ = _oracles.brute_force_uR(diagram, 3)
    assert report == expected
    assert certified and all(_inside_window(w) for w in certified)
    ids = range(1, len(diagram.rows) + 1)
    first = next(
        k for k in range(4) for s in combinations(ids, k)
        if _inside_window(diagram.region_crossing_changes(s).word())
    )
    assert (report.exact, report.witness, report.lower_bound) == (None, None, first)
    assert report.inconclusive >= 1


def test_search_matches_oracle_without_rotation_symmetry(monkeypatch):
    # Period L: each key is the flip int itself, so the memo skips only
    # subsets whose flips repeat an earlier subset's (they differ by a
    # kernel element).  Mostly positive letters keep u_R above 1.
    refuter_calls = _record_calls(monkeypatch, "burau_alexander")
    rng = random.Random(29)
    checked = deep = oracle_words = 0
    while checked < 20:
        p = rng.randint(3, 4)
        w = random_connected_word(rng, p, rng.randint(2 * p, 12))
        w = BraidWord(p, tuple(abs(x) if rng.random() < 0.8 else x for x in w.letters))
        if _rotation_period(w.letters) != len(w.letters):
            continue
        diagram = close_braid(w)
        k_max = 4
        try:
            report = brute_force_uR(diagram, k_max)
        except NotProperError:
            continue
        expected, words = _oracles.brute_force_uR(diagram, k_max)
        assert report == expected, w
        checked += 1
        deep += report.exact is not None and report.exact >= 2
        oracle_words += len(words)
    assert deep >= 5
    assert len(refuter_calls) < oracle_words  # the memo skipped some subsets


def test_memo_cuts_refuter_calls_on_the_probe_set(monkeypatch):
    refuter_calls = _record_calls(monkeypatch, "burau_alexander")
    certifier_calls = _record_calls(monkeypatch, "certify_unlink")
    reports = [sharpness_probe(spec).search for spec in PROBE_SPECS]
    assert sum(r.explored for r in reports if r is not None) == 3140
    # without the memo and the writhe window all 656 subset words reach
    # the refuter; the window alone settles 113 of the 226 the memo leaves
    assert (len(refuter_calls), len(certifier_calls)) == (113, 13)
    assert all(_inside_window(w) for w in refuter_calls)


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
