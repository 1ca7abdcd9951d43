import random
from itertools import combinations

from _oracles import min_weight_solution, select_bits
from regionum.gf2 import solution_coset


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


def _random_systems(seed, count=20, max_bits=7, max_rows=6):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_bits)
        yield n, [rng.getrandbits(n) for _ in range(rng.randint(1, max_rows))]


def test_the_coset_of_zero_has_two_to_the_nullity_members():
    # rank-nullity: 2^rank span vectors times 2^nullity kernel members
    for _, rows in _random_systems(2, max_bits=8, max_rows=8):
        assert len(list(solution_coset(rows, 0))) * len(brute_span(rows)) == 2 ** len(rows)


def test_a_target_is_in_the_span_iff_its_coset_is_non_empty():
    for n, rows in _random_systems(4):
        span = brute_span(rows)
        for v in range(1 << n):
            assert (next(solution_coset(rows, v), None) is not None) == (v in span)


def test_the_coset_of_zero_is_the_kernel():
    # distinct row selections, each XORing to zero, the empty one first
    for _, rows in _random_systems(6):
        kernel = list(solution_coset(rows, 0))
        assert kernel[0] == 0 and len(set(kernel)) == len(kernel)
        for mask in kernel:
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
