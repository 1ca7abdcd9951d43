"""Hypothesis strategies and a seeded generator for braid words, shared by
the test modules."""

from hypothesis import strategies as st

from regionum.braid import BraidWord


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
