import random
from itertools import combinations

from _oracles import min_weight_solution, select_bits
from regionum.gf2 import row_reduce, solution_coset


def brute_span(rows):
    out = set()
    for k in range(len(rows) + 1):
        for combo in combinations(rows, k):
            v = 0
            for r in combo:
                v ^= r
            out.add(v)
    return out


def test_select_bits():
    assert select_bits(0b10100) == [2, 4]


def test_row_reduce_rank_matches_span():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 8)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 8))]
        assert 2 ** row_reduce(rows).rank == len(brute_span(rows))


def test_contains_agrees_with_brute_span():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 7)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        sys_ = row_reduce(rows)
        span = brute_span(rows)
        for v in range(1 << n):
            assert (sys_.solve(v) is not None) == (v in span)


def test_nullspace_dimension():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 7)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        system = row_reduce(rows)
        assert len(system.kernel) == len(rows) - system.rank
        for mask in system.kernel:
            v = 0
            for i in select_bits(mask):
                v ^= rows[i]
            assert v == 0


def test_solution_coset_exhaustive():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 6)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        target = rng.getrandbits(n)
        found = set(solution_coset(rows, target))
        expected = set()
        for k in range(len(rows) + 1):
            for idxs in combinations(range(len(rows)), k):
                v = 0
                mask = 0
                for i in idxs:
                    v ^= rows[i]
                    mask |= 1 << i
                if v == target:
                    expected.add(mask)
        assert found == expected


def test_min_weight_and_exact_weight_solutions():
    rows = [0b0011, 0b0110, 0b1100]
    target = 0b1111
    best = min_weight_solution(rows, target)
    assert best is not None and best.bit_count() == 2
    assert min_weight_solution(rows, 0b0001) is None
