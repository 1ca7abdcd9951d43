"""The size limits of regionum, one table.

Each limit bounds a cost that grows too fast past it (timings: Python
3.11, 2 vCPUs).  Every entry point checks its input here before it
builds anything: over a limit it refuses in one line (exit 1 in the CLI),
or it skips a cross-check and says so on stderr.
"""

# Crossings of a diagram, or letters of a word: a diagram's region rows
# take about L^2 / 16 bytes for L crossings, 0.01 s and 22 MB of peak RSS
# at this limit, 1.4 s and 912 MB at 90 000 crossings.
MAX_CROSSINGS = 10_000
# Strands of a Kauffman bracket, so of a Jones polynomial: 924 half-diagrams
# in 7 cell modules, the largest of 297.  The K(12,13) target takes 1.9 s
# serially, K(13,14)'s 9.5 s and 211 MB.
MAX_STRANDS = 12
# Regions whose subsets a u_R search enumerates: lifted, K(5,9) (34 regions,
# 633 k subsets up to k = 6) takes 2.8 s and K(4,13) (41, k <= 7) 20.1 s.
MAX_SEARCH_REGIONS = 30
# Crossings of a sharpness probe, searched up to its theorem bound: the 29
# specs within it explore 3140 subsets, K(5,7) (24 crossings) alone 0.26 s.
MAX_PROBE_CROSSINGS = 16


def refuse_over(name: str, count: int, unit: str, subject: str) -> None:
    """Raise ``ValueError("<subject> has <count> <unit>, over <name> <limit>")``
    when ``count`` exceeds the limit ``name`` of this table."""
    limit = globals()[name]
    if count > limit:
        raise ValueError(f"{subject} has {count} {unit}, over {name} {limit}")
