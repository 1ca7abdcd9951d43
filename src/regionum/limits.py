"""The size limits and reduction budgets of regionum, one table.

Each limit bounds a cost that grows too fast past it (timings: Python
3.11, 2 vCPUs).  Every entry point checks its input here before it
builds anything: over a limit it refuses in one line (exit 1 in the CLI),
or it skips a cross-check and says so on stderr.  A budget bounds a step
of the reduction engine (:mod:`regionum.braid`); running out of one leaves
a closure undissolved: INCONCLUSIVE, never REFUTED.
"""

# Crossings of a diagram, or letters of a word: a diagram's region rows
# take about L^2 / 16 bytes for L crossings, 0.01 s and 22 MB of peak RSS
# at this limit, 1.4 s and 912 MB at 90 000 crossings.
MAX_CROSSINGS = 10_000
# Strands of a Kauffman bracket, so of a Jones polynomial: 924 half-diagrams
# in 7 cell modules, the largest of 297.  A serial sweep of all columns of
# the K(12,13) target takes 1.05-1.16 s, K(13,14)'s 5.0-5.3 s and 156 MB.
MAX_STRANDS = 12
# Regions whose subsets a u_R search enumerates: lifted, K(5,9) (34 regions,
# 633 k subsets up to k = 6) takes 2.8 s and K(4,13) (41, k <= 7) 20.1 s.
MAX_SEARCH_REGIONS = 30
# Crossings of a sharpness probe, searched up to its theorem bound: the 29
# specs within it explore 3140 subsets, K(5,7) (24 crossings) alone 0.26 s.
MAX_PROBE_CROSSINGS = 16
# Handle-reduction steps of one call: 10^6 take 4.0-4.6 s on random 5- and
# 6-strand words of 60 000 letters, the 200 000-letter staircase power 0.1 s.
HANDLE_BUDGET = 1_000_000
# Rounds of handle reduction and Markov simplification before the search:
# all but the last remove a letter or a strand; the grid targets use <= 4.
REDUCE_MAX_ROUNDS = 200
# States one move search expands (half per part of a split state): 3000
# take 0.5-0.7 s on K(9,11)'s 16-letter residue, 9.1 s on K(12,79)'s 77.
SEARCH_MAX_NODES = 3000
# Letters a search state may have beyond its start L, so at most L + 3 +
# 2(p - 1) neighbours a state; at 0 to 16 those two take 0.5-1.7 s.
SEARCH_SLACK = 4
# Handle-reduction steps of one search neighbour: 500 take 1.3-1.5 ms on
# random 3- to 5-strand words of 3000 letters.
SEARCH_STEP_BUDGET = 500


def refuse_over(name: str, count: int, unit: str, subject: str) -> None:
    """Raise ``ValueError("<subject> has <count> <unit>, over <name> <limit>")``
    when ``count`` exceeds the limit ``name`` of this table."""
    limit = globals()[name]
    if count > limit:
        raise ValueError(f"{subject} has {count} {unit}, over {name} {limit}")
