"""Exact brute-force region unknotting numbers for small diagrams and
empirical probes comparing them with the theorem bounds.

The search enumerates region subsets by increasing cardinality and tests
the resulting diagram for triviality.  For 2-braid closures triviality is
decided exactly (the closure of sigma_1^{e_1} ... sigma_1^{e_q} is trivial
iff |sum e_i| <= 1).  Any other word is first offered to the exact
Burau-Alexander refuter, which settles most knotted words in polynomial
time; what it does not refute needs a Certified verdict from the unlink
certifier.  So an exact value is only reported when no smaller subset
succeeded and no smaller subset was left undecided.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

from .braid import BraidWord, toric_braid
from .diagram import PlanarDiagram, close_braid
from .invariants import Verdict, alexander_refutes, certify_unlink
from .properness import TorusLinkSpec, is_proper
from .bounds import NotProperError, bound

MAX_REGIONS = 30


@dataclasses.dataclass(frozen=True)
class SearchReport:
    exact: int | None  # u_R of the diagram, when established
    lower_bound: int  # no subset of size < lower_bound trivializes
    witness: tuple[int, ...] | None  # region ids achieving `exact`
    explored: int  # subsets tested
    inconclusive: int  # subsets the oracle could not decide


def _two_braid_trivial(letters: tuple[int, ...]) -> bool:
    return abs(sum(1 if x > 0 else -1 for x in letters)) <= 1


def brute_force_uR(diagram: PlanarDiagram, k_max: int) -> SearchReport:
    """Smallest number of region crossing changes trivializing the diagram,
    searching subsets of size 0..k_max in order.

    When undecided subsets exist below the first success, the result is
    reported as a lower bound only (exact=None) rather than guessed.
    """
    if k_max < 0:
        raise ValueError(f"subset size bound must be >= 0, got {k_max}")
    n_regions = len(diagram.regions)
    if n_regions > MAX_REGIONS:
        raise ValueError(
            f"{n_regions} regions exceed the enumeration guard {MAX_REGIONS}"
        )
    data = diagram.linking_data()
    if any(data.total_linking(i) % 2 for i in range(data.component_count)):
        raise NotProperError("diagram is not proper; no subset can trivialize it")
    strands = diagram.strands
    two_braid = strands == 2
    base = diagram.word().letters
    rows = diagram.rows
    explored = 0
    undecided = 0
    first_undecided_size: int | None = None
    ids = range(1, n_regions + 1)
    for k in range(k_max + 1):
        for subset in combinations(ids, k):
            explored += 1
            bits = 0
            for r in subset:
                bits ^= rows[r - 1]
            letters = tuple(-x if bits >> c & 1 else x for c, x in enumerate(base))
            if two_braid:
                trivial = _two_braid_trivial(letters)
            else:
                word = BraidWord(strands, letters)
                if alexander_refutes(word):
                    continue
                verdict = certify_unlink(word).verdict
                if verdict is Verdict.INCONCLUSIVE:
                    undecided += 1
                    if first_undecided_size is None:
                        first_undecided_size = k
                    continue
                trivial = verdict is Verdict.CERTIFIED
            if trivial:
                exact = k if first_undecided_size is None else None
                return SearchReport(
                    exact=exact,
                    lower_bound=k if first_undecided_size is None else first_undecided_size,
                    witness=subset,
                    explored=explored,
                    inconclusive=undecided,
                )
    return SearchReport(
        exact=None,
        lower_bound=(
            k_max + 1 if first_undecided_size is None else first_undecided_size
        ),
        witness=None,
        explored=explored,
        inconclusive=undecided,
    )


@dataclasses.dataclass(frozen=True)
class SharpnessProbe:
    spec: TorusLinkSpec
    proper: bool
    theorem_bound: int | None
    search: SearchReport | None  # None for non-proper links
    improves_bound: bool  # True would refute the bound's sharpness


def sharpness_probe(spec: TorusLinkSpec) -> SharpnessProbe:
    """Compare the exact search against the smallest theorem bound on the
    standard diagram of a small torus link."""
    if spec.crossings > 16:
        raise ValueError("probe restricted to diagrams with <= 16 crossings")
    if not is_proper(spec.p, spec.q):
        return SharpnessProbe(
            spec=spec, proper=False, theorem_bound=None, search=None,
            improves_bound=False,
        )
    results = bound(spec)
    theorem = results[0].bound if results else None
    diagram = close_braid(toric_braid(spec.p, spec.q))
    k_max = theorem if theorem is not None else (spec.crossings + 2) // 2
    report = brute_force_uR(diagram, k_max)
    improves = (
        theorem is not None
        and report.exact is not None
        and report.exact < theorem
    )
    return SharpnessProbe(
        spec=spec,
        proper=True,
        theorem_bound=theorem,
        search=report,
        improves_bound=improves,
    )
