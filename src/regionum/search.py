"""Exact brute-force region unknotting numbers for small diagrams and
empirical probes comparing them with the theorem bounds.

The search enumerates region subsets by increasing cardinality and tests
the resulting diagram for triviality.  First comes the writhe window
(Morton, Math. Proc. Cambridge 99, 1986; Franks-Williams, Trans. AMS 303,
1987): a braid on n strands whose closure is the mu-component unlink has
|writhe| <= n - mu, and the writhe comes from popcounts of the subset's
flip int, so a subset outside the window is refuted before any word is
built.  On two strands the window decides exactly (the closure of
sigma_1^{e_1} ... sigma_1^{e_q} is trivial iff |sum e_i| <= 1, and the
sum is even for the 2-component link).  A word on more strands inside the
window is offered to the exact Burau-Alexander refuter, which settles
most knotted words in polynomial time; what it does not refute needs a
Certified verdict from the unlink certifier.  So an exact value is only
reported when no smaller subset succeeded and no smaller subset was left
undecided.

Flip patterns are keyed up to the rotation symmetry of the base word: on
the standard diagram, (sigma_1 ... sigma_{p-1})^q, rotating a pattern by
p - 1 crossings gives a conjugate braid.  Refutations (and only
refutations) are reused across a key's rotations within one call; see
:func:`brute_force_uR`.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

from .braid import BraidWord, closure_components, toric_braid
from .diagram import PlanarDiagram, close_braid
from .invariants import Verdict, burau_alexander, certify_unlink, refutes_unlink
from .limits import refuse_over
from .properness import TorusLinkSpec, is_proper
from .bounds import NotProperError, bound


@dataclasses.dataclass(frozen=True)
class SearchReport:
    exact: int | None  # u_R of the diagram, when established
    lower_bound: int  # no subset of size < lower_bound trivializes
    witness: tuple[int, ...] | None  # region ids achieving `exact`
    explored: int  # subsets tested
    inconclusive: int  # subsets the oracle could not decide


def _rotation_period(base: tuple[int, ...]) -> int:
    """Smallest s dividing len(base) such that rotating ``base`` by s
    leaves it unchanged: p - 1 for the standard diagram of T(p, q), and
    len(base) when the word has no rotation symmetry."""
    length = len(base)
    return next(
        s for s in range(1, length + 1)
        if length % s == 0 and base[s:] + base[:s] == base
    )


def brute_force_uR(diagram: PlanarDiagram, k_max: int) -> SearchReport:
    """Smallest number of region crossing changes trivializing the diagram,
    searching subsets of size 0..k_max in order.

    When undecided subsets exist below the first success, the result is
    reported as a lower bound only (exact=None) rather than guessed.
    Undecided subsets of the success's own size do not matter: every
    smaller subset was refuted, so the size is exact.

    A subset is tested through its flip int (bit c flips crossing c).
    Rotating the base word by its rotation period ``s`` leaves it
    unchanged, so rotating a flip int by a multiple of ``s`` gives a cyclic
    rotation of the flipped word: a conjugate braid with the same closure.
    Each flip int is keyed by the least of those rotations (with no
    symmetry, ``s`` is the word length and the key is the flip int).  A
    per-call memo holds the keys whose closure was proven not to be the
    unlink, by the Alexander refuter or by a Refuted verdict; a later
    subset with a memoized key counts as explored and is skipped, as a
    refuted one always was.  Both refutations rest on invariants of the
    closure, so every rotation would be refuted the same way and the report
    is the one an unmemoized search gives.  Inconclusive and Certified
    verdicts are never stored: the reduction engine may answer differently
    for another rotation, and Certified ends the search.  The memo costs one
    int per refuted class and is freed when the call returns.

    The writhe of a subset's word is the base writhe minus twice the
    flipped positive crossings plus twice the flipped negative ones, and
    its closure has the base word's component count mu, as a sign flip
    keeps the permutation; the refuter's decision takes both from here.
    A subset with |writhe| > strands - mu is refuted at once: no braid
    closing to the mu-component unlink lies outside that window (Morton;
    Franks-Williams).  This is a proof, not a heuristic, and it never
    certifies.  The writhe is the same for every rotation, so the window
    needs no memo entry, and it comes before the key is formed.  On two
    strands a word inside the window closes to the unlink (sigma_1^{+-1}
    or the empty braid after free reduction), so no word is built.
    """
    if k_max < 0:
        raise ValueError(f"subset size bound must be >= 0, got {k_max}")
    n_regions = len(diagram.rows)
    refuse_over("MAX_SEARCH_REGIONS", n_regions, "regions", "the diagram")
    if not diagram.linking_data().is_proper:
        raise NotProperError("diagram is not proper; no subset can trivialize it")
    strands = diagram.strands
    two_braid = strands == 2
    base_word = diagram.word()
    base = base_word.letters
    components = closure_components(base_word)
    window = strands - components
    rows = diagram.rows
    length = len(base)
    mask = (1 << length) - 1
    period = _rotation_period(base)
    shifts = range(period, length, period)
    pos = sum(1 << c for c, x in enumerate(base) if x > 0)
    neg = mask & ~pos
    base_writhe = pos.bit_count() - neg.bit_count()
    refuted: set[int] = set()  # keys of closures proven not to be the unlink
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
            writhe = (
                base_writhe
                - 2 * (bits & pos).bit_count()
                + 2 * (bits & neg).bit_count()
            )
            if abs(writhe) > window:
                continue
            if not two_braid:
                key = bits
                for t in shifts:
                    rotated = (bits >> t | bits << (length - t)) & mask
                    if rotated < key:
                        key = rotated
                if key in refuted:
                    continue
                word = BraidWord(
                    strands,
                    tuple(-x if bits >> c & 1 else x for c, x in enumerate(base)),
                )
                if refutes_unlink(burau_alexander(word), strands, components, writhe):
                    refuted.add(key)
                    continue
                verdict = certify_unlink(word).verdict
                if verdict is Verdict.REFUTED:
                    refuted.add(key)
                    continue
                if verdict is Verdict.INCONCLUSIVE:
                    undecided += 1
                    if first_undecided_size is None:
                        first_undecided_size = k
                    continue
            return SearchReport(
                exact=k if first_undecided_size in (None, k) else None,
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
    refuse_over("MAX_PROBE_CROSSINGS", spec.crossings, "crossings", f"K({spec.p},{spec.q})")
    if not is_proper(spec.p, spec.q):
        return SharpnessProbe(
            spec=spec, proper=False, theorem_bound=None, search=None,
            improves_bound=False,
        )
    results = bound(spec)
    theorem = results[0].bound if results else None
    diagram = close_braid(toric_braid(spec.p, spec.q))
    k_max = theorem if theorem is not None else spec.regions // 2
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
