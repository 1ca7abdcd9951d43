"""Acceptance gate: one test per criterion, each emitting a single
``CRITERION n: PASS|FAIL`` line on the real stdout (bypassing capture) so
the run reads as a checklist.
"""

import random
import time

from _oracles import conjugate, cyclic_shift, naive_bracket
from _words import (
    eta_ladder_words,
    even_ladder_words,
    run_pair_words,
    three_block_words,
    width4_cancel_words,
)
from regionum.bounds import bound, verify_bound
from regionum.braid import BraidWord, handle_reduce, toric_braid
from regionum.diagram import close_braid
from regionum.invariants import Verdict, jones, kauffman_bracket, unlink_jones
from regionum.properness import (
    TorusLinkSpec,
    is_proper,
    is_proper_closed_form,
    is_proper_diagram_oracle,
    is_proper_power_form,
)
from regionum.search import brute_force_uR, sharpness_probe
from regionum.templates import (
    eight_block_word,
    generator_run_word,
    mirror_staircase_word,
    staircase_word,
)


def report(capfd, n, title, check):
    t0 = time.perf_counter()
    try:
        detail = check()
    except BaseException:
        with capfd.disabled():
            print(
                f"CRITERION {n}: FAIL ({title}, {time.perf_counter() - t0:.1f}s)",
                flush=True,
            )
        raise
    elapsed = time.perf_counter() - t0
    suffix = f" — {detail}" if detail else ""
    with capfd.disabled():
        print(f"CRITERION {n}: PASS ({title}, {elapsed:.1f}s){suffix}", flush=True)


def acceptance_grid():
    return [
        (p, q)
        for p in range(2, 7)
        for q in range(p + 1, 6 * p + 6)
        if is_proper(p, q)
    ]


def test_criterion_1_properness_equivalence(capfd):
    def check():
        t0 = time.perf_counter()
        for p in range(2, 13):
            for q in range(1, 25):
                closed = is_proper_closed_form(p, q)
                assert closed == is_proper_power_form(p, q), (p, q)
                assert closed == is_proper_diagram_oracle(p, q), (p, q)
        assert time.perf_counter() - t0 < 10
        return "276 specs, three predicates"

    report(capfd, 1, "properness equivalence", check)


def test_criterion_2_two_braid_exact_values(capfd):
    def check():
        t0 = time.perf_counter()
        for q in (3, 5, 7, 9, 11, 13):
            expected = (q + 2) // 4
            got = brute_force_uR(close_braid(toric_braid(2, q)), expected).exact
            assert got == expected, (q, got, expected)
        assert time.perf_counter() - t0 < 60
        return "u_R(K(2,q)) = floor((q+2)/4), q in 3..13 odd"

    report(capfd, 2, "2-braid exact reproduction", check)


def test_criterion_3_staircase_triviality(capfd):
    def check():
        t0 = time.perf_counter()
        for p in range(2, 11):
            assert handle_reduce(staircase_word(p)).letters == (), p
            assert handle_reduce(mirror_staircase_word(p)).letters == (), p
        assert time.perf_counter() - t0 < 5
        return "staircase and mirror dissolve, p = 2..10"

    report(capfd, 3, "staircase word triviality", check)


def test_criterion_4_end_to_end_certificates(capfd):
    def check():
        t0 = time.perf_counter()
        grid = acceptance_grid()
        for p, q in grid:
            spec = TorusLinkSpec(p, q)
            result = verify_bound(spec)
            cert = result.certificate
            assert len(cert.schedule) == result.bound, (p, q)
            if spec.is_knot:
                assert cert.unlink.verdict is Verdict.CERTIFIED, (p, q)
            else:
                assert cert.unlink.verdict is not Verdict.REFUTED, (p, q)
                assert cert.unlink.jones_matches_unlink, (p, q)
        assert time.perf_counter() - t0 < 300
        return f"{len(grid)} proper links certified"

    report(capfd, 4, "end-to-end bound certificates", check)


def test_criterion_5_lemma_suite(capfd):
    def check():
        rng = random.Random(2024)

        def signs(n):
            return [rng.choice([1, -1]) for _ in range(n)]

        def same_closure(lhs, rhs, tag):
            from regionum.braid import closure_components

            assert closure_components(lhs) == closure_components(rhs), tag
            assert jones(lhs) == jones(rhs), tag

        def trivial_closure(w, tag):
            from regionum.braid import closure_components

            assert jones(w) == unlink_jones(closure_components(w)), tag

        for k in range(20):  # single-ladder collapse
            p = rng.randint(3, 8)
            a = rng.randint(1, p - 1)
            lhs, rhs = eta_ladder_words(p, a, [signs(p - a) for _ in range(a)])
            same_closure(lhs, rhs, ("eta", k))
        for k in range(20):  # even-parameter ladder collapse
            p = rng.choice([4, 6, 8])
            a = rng.choice([x for x in (2, 4, 6) if x < p])
            lhs, rhs = even_ladder_words(p, a, [signs(p - a) for _ in range(a)])
            same_closure(lhs, rhs, ("even", k))
        for k in range(20):  # width-4 wedge cancellation
            p = rng.randint(6, 10)
            lhs, rhs = width4_cancel_words(
                p, signs(p - 5), signs(p - 5), rng.choice([1, -1]), rng.choice([1, -1])
            )
            same_closure(lhs, rhs, ("width4", k))
        for k in range(20):  # signed generator runs close trivially
            i, j = rng.randint(1, 8), rng.randint(1, 8)
            trivial_closure(generator_run_word(i, j), ("run", i, j))
        for n in range(1, 9):  # both run/anti-run orders, n+1 <= 9 strands
            for w in run_pair_words(n):
                trivial_closure(w, ("run_pair", n))
        for p in (4, 6, 8, 10):  # three-row trivial links per residue class
            lhs, rhs = three_block_words(p)
            trivial_closure(lhs, ("three_block", p))
            trivial_closure(rhs, ("three_block_rhs", p))
        trivial_closure(eight_block_word(12, 4), "eight_block")
        return "6 families, 20+ samples each, zero tolerance"

    report(capfd, 5, "lemma suite", check)


def test_criterion_6_invariant_cross_checks(capfd):
    def check():
        rng = random.Random(404)
        for _ in range(200):
            p = rng.randint(2, 5)
            c = rng.randint(0, 12)
            w = BraidWord(
                p,
                tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(c)),
            )
            assert kauffman_bracket(w) == naive_bracket(w), w
        for _ in range(100):
            p = rng.randint(2, 5)
            w = BraidWord(
                p,
                tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(8)),
            )
            value = jones(w)
            move = rng.choice(["shift", "conj", "stab"])
            if move == "shift":
                w2 = cyclic_shift(w, rng.randint(1, 7))
            elif move == "conj":
                w2 = conjugate(w, rng.choice([1, -1]) * rng.randint(1, p - 1))
            else:
                w2 = BraidWord(p + 1, w.letters + (rng.choice([p, -p]),))
            assert jones(w2) == value, (w, move)
        return "200 state-sum checks, 100 Markov moves"

    report(capfd, 6, "invariant oracle cross-check", check)


def test_criterion_7_trivial_bound_dominance(capfd):
    def check():
        t0 = time.perf_counter()
        for p, q in acceptance_grid():
            minimum = bound(TorusLinkSpec(p, q))[0].bound
            assert minimum <= ((p - 1) * q + 2) // 2, (p, q)
        spec = TorusLinkSpec(50, 51)
        ratio = bound(spec)[0].bound / spec.crossings
        assert 1 / 8 <= ratio <= 1 / 5, ratio
        assert time.perf_counter() - t0 < 1
        return f"K(50,51) bound/crossings = {ratio:.4f}"

    report(capfd, 7, "trivial-bound dominance", check)


def test_criterion_8_conjecture_probe_informational(capfd):
    def check():
        lines = []
        for p, q in [(3, 3), (3, 4), (4, 4), (4, 5)]:
            probe = sharpness_probe(TorusLinkSpec(p, q))
            if not probe.proper:
                lines.append(f"K({p},{q}): not proper")
                continue
            lines.append(
                f"K({p},{q}): bound {probe.theorem_bound}, "
                f"brute {probe.search.exact}"
            )
            if probe.improves_bound:  # informational: log, never fail
                lines.append(f"K({p},{q}): brute search IMPROVES the bound")
        return "; ".join(lines)

    report(capfd, 8, "conjecture probe (informational)", check)
