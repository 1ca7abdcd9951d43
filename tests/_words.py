"""Hypothesis strategies and a seeded generator for braid words, shared by
the test modules, and the closure-equivalence lemmas' word pairs.

Each lemma constructor returns an (lhs, rhs) pair whose closures are the
same link, which the lemma suite checks through the Jones polynomial and
component counts.  The package builds none of these pairs: a lemma comes
back into ``regionum.templates`` once a construction uses it.
"""

from hypothesis import strategies as st

from regionum.braid import BraidWord
from regionum.templates import three_block_word


def letters(p):
    return st.sampled_from([x for x in range(1 - p, p) if x])


def random_connected_word(rng, p, c):
    """c random letters on p strands that use every generator, so that the
    closure is a connected diagram."""
    while True:
        w = BraidWord(
            p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(c))
        )
        if {abs(x) for x in w.letters} == set(range(1, p)):
            return w


@st.composite
def braid_words(draw, letters_per_strand=4, min_strands=2, max_strands=8):
    p = draw(st.integers(min_strands, max_strands))
    return BraidWord(
        p, tuple(draw(st.lists(letters(p), max_size=letters_per_strand * p)))
    )



@st.composite
def signed_runs(draw, letters_per_strand=10, max_strands=14, min_letters=0):
    """A word on 1..max_strands strands whose letters come in runs of one
    sign: the sign changes only at drawn positions, so a word with no
    change (what shrinking tends to) is all positive or all negative.
    Words on two or more strands have at least ``min_letters`` letters,
    or ``letters_per_strand`` per strand if that is fewer."""
    p = draw(st.integers(1, max_strands))
    if p == 1:
        return BraidWord(1)
    most = letters_per_strand * p
    gens = draw(st.lists(st.integers(1, p - 1), min_size=min(min_letters, most), max_size=most))
    changes = draw(st.sets(st.integers(0, max(len(gens) - 1, 0))))
    sign = draw(st.sampled_from((1, -1)))
    letters = []
    for k, g in enumerate(gens):
        if k in changes:
            sign = -sign
        letters.append(sign * g)
    return BraidWord(p, tuple(letters))

def _rewrite_at(word, j):
    """One braid relation applied at position j, or None if none fits:
    far-apart letters commute, s_i^e s_k^f s_i^-e = s_k^-e s_i^f s_k^e
    and s_i^e s_k^e s_i^e = s_k^e s_i^e s_k^e for |i - k| = 1."""
    x, y = word[j], word[j + 1]
    i, k = abs(x), abs(y)
    if abs(i - k) >= 2:
        return word[:j] + [y, x] + word[j + 2 :]
    if j + 2 >= len(word) or abs(i - k) != 1:
        return None
    e, f = (1 if x > 0 else -1), (1 if y > 0 else -1)
    if word[j + 2] == -x:
        return word[:j] + [-e * k, f * i, e * k] + word[j + 3 :]
    if word[j + 2] == x and e == f:
        return word[:j] + [y, x, y] + word[j + 3 :]
    return None


def respell(original, moves):
    """The same braid spelled differently: each move inserts a cancelling
    pair, or applies the first braid relation that fits at or after a
    position."""
    word = list(original)
    for kind, pos, gen in moves:
        if kind == 0:
            j = pos % (len(word) + 1)
            word[j:j] = [gen, -gen]
            continue
        for step in range(len(word) - 1):
            rewritten = _rewrite_at(word, (pos + step) % (len(word) - 1))
            if rewritten is not None:
                word = rewritten
                break
    return tuple(word)


@st.composite
def trivial_conjugates(draw):
    """u w w'^-1 u^-1, where w' is w respelled by braid relations (on
    three or more strands, where relations other than free cancellation
    exist)."""
    p = draw(st.integers(3, 8))
    w = draw(st.lists(letters(p), min_size=2, max_size=3 * p))
    u = draw(st.lists(letters(p), max_size=2 * p))
    move = st.tuples(st.integers(0, 3), st.integers(0, 64), letters(p))
    moves = draw(st.lists(move, min_size=p, max_size=4 * p))
    u = BraidWord(p, tuple(u))
    v = BraidWord(p, tuple(w)) * BraidWord(p, respell(w, moves)).inverse()
    return u * v * u.inverse()


@st.composite
def unlink_closures(draw):
    """A word whose closure is a trivial link: a trivial conjugate, or the
    empty word on one strand, Markov-stabilized at the top 0..3 times (at
    least once from one strand), conjugated by a word on the final strand
    count, and followed by another respelled identity.  The closure of
    an identity braid on p strands is the p-component unlink, and neither
    move changes the link."""
    if draw(st.booleans()):
        v = draw(trivial_conjugates())
    else:
        v = BraidWord(1)
    for _ in range(draw(st.integers(1 if v.strands == 1 else 0, 3))):
        p = v.strands
        v = BraidWord(p + 1, v.letters + (draw(st.sampled_from([p, -p])),))
    p = v.strands
    u = BraidWord(p, tuple(draw(st.lists(letters(p), max_size=2 * p))))
    y = draw(st.lists(letters(p), max_size=2 * p))
    move = st.tuples(st.integers(0, 3), st.integers(0, 64), letters(p))
    moves = draw(st.lists(move, max_size=2 * p))
    identity = BraidWord(p, tuple(y)) * BraidWord(p, respell(y, moves)).inverse()
    return u * v * u.inverse() * identity


def _signed(index: int, sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign exponents must be +-1, got {sign}")
    return index * sign


def eta_ladder_words(
    p: int, a: int, g: list[list[int]]
) -> tuple[BraidWord, BraidWord]:
    """Ladder of a blocks on p strands versus its collapsed form.

    Block i is eta_i kappa_{p-i} sigma_{p-i+1}^-1 ... sigma_{p-1}^-1 with
    eta_i = sigma_1^{g[i][1]} ... sigma_{p-a}^{g[i][p-a]} and kappa_j the
    positive run sigma_{p-a+1} ... sigma_j.  The closure equals that of
    eta_1' ... eta_a' (the eta blocks without their last letter) on p-a
    strands.
    """
    if not 1 <= a < p:
        raise ValueError(f"need p > a >= 1, got p={p}, a={a}")
    if len(g) != a or any(len(row) != p - a for row in g):
        raise ValueError(f"need an {a} x {p - a} sign table")
    lhs: list[int] = []
    rhs: list[int] = []
    for i in range(1, a + 1):
        row = g[i - 1]
        lhs.extend(_signed(j, row[j - 1]) for j in range(1, p - a + 1))
        lhs.extend(range(p - a + 1, p - i + 1))  # kappa_{p-i}
        lhs.extend(-j for j in range(p - i + 1, p))
        rhs.extend(_signed(j, row[j - 1]) for j in range(1, p - a))
    return BraidWord(p, tuple(lhs)), BraidWord(max(p - a, 1), tuple(rhs))


def even_ladder_words(
    p: int, q: int, g: list[list[int]]
) -> tuple[BraidWord, BraidWord]:
    """Even-parameter ladder: eta_1 kappa_1 ... eta_q kappa_q on p strands
    versus eta_1' ... eta_q' on p-q strands, for p > q both even.

    Here kappa_i = sigma_{p-q+1}^-1 ... sigma_{p-i}^-1 sigma_{p-i+1} ...
    sigma_{p-1}.
    """
    if not (p > q >= 2 and p % 2 == 0 and q % 2 == 0):
        raise ValueError(f"need even p > even q >= 2, got p={p}, q={q}")
    if len(g) != q or any(len(row) != p - q for row in g):
        raise ValueError(f"need a {q} x {p - q} sign table")
    lhs: list[int] = []
    rhs: list[int] = []
    for i in range(1, q + 1):
        row = g[i - 1]
        lhs.extend(_signed(j, row[j - 1]) for j in range(1, p - q + 1))
        lhs.extend(-j for j in range(p - q + 1, p - i + 1))
        lhs.extend(range(p - i + 1, p))
        rhs.extend(_signed(j, row[j - 1]) for j in range(1, p - q))
    return BraidWord(p, tuple(lhs)), BraidWord(p - q, tuple(rhs))


def width4_cancel_words(
    p: int,
    beta1: list[int],
    beta2: list[int],
    g1: int = 1,
    g2: int = 1,
) -> tuple[BraidWord, BraidWord]:
    """Two width-4 wedges around free-sign prefixes beta_1, beta_2 cancel:

        beta_1 s_{p-4}^{g1} s_{p-3} s_{p-2} s_{p-1}^-1
        beta_2 s_{p-4}^{g2} s_{p-3} s_{p-2}^-1 s_{p-1}^-1

    closes to the same link as beta_1 beta_2 on p-4 strands.  beta_j is
    given as its sign list over sigma_1..sigma_{p-5}.
    """
    if p < 6:
        raise ValueError(f"need p >= 6, got {p}")
    if len(beta1) != p - 5 or len(beta2) != p - 5:
        raise ValueError(f"beta sign lists must have length {p - 5}")
    lhs: list[int] = []
    for beta, g, mid_sign in ((beta1, g1, 1), (beta2, g2, -1)):
        lhs.extend(_signed(j, beta[j - 1]) for j in range(1, p - 4))
        lhs.extend([_signed(p - 4, g), p - 3, _signed(p - 2, mid_sign), -(p - 1)])
    rhs = tuple(_signed(j, s) for beta in (beta1, beta2) for j, s in enumerate(beta, 1))
    return BraidWord(p, tuple(lhs)), BraidWord(p - 4, rhs)


def three_block_words(p: int) -> tuple[BraidWord, BraidWord]:
    """The three-block word paired with its fully reduced representative
    (the three-block word at the smallest strand count in its class)."""
    lhs = three_block_word(p)
    rhs = three_block_word({0: 6, 2: 8, 4: 4}[p % 6])
    return lhs, rhs


def run_pair_words(n: int) -> tuple[BraidWord, BraidWord]:
    """The two full-run words on n+1 strands whose closures are trivial
    links: the ascending run times its inverse-sign run, in both orders."""
    run = tuple(range(1, n + 1))
    anti = tuple(-k for k in run)
    return BraidWord(n + 1, run + anti), BraidWord(n + 1, anti + run)
