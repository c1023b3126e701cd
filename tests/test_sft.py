import itertools
import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from sfttrace import sft as sft_mod
from sfttrace.sft import (
    InvalidMatrix,
    Sft,
    ZeroRowOrColumn,
    bridge_words,
    count_paths,
    is_admissible,
    is_mixing,
    make_sft,
)

FULL = make_sft([[1, 1], [1, 1]], ["0", "1"])
GOLDEN = make_sft([[1, 1], [1, 0]], ["0", "1"])


def brute_count_paths(sft, i, j, length):
    # independent oracle: explicit walk enumeration
    if length == 0:
        return 1 if i == j else 0
    frontier = {i: 1}
    for _ in range(length):
        nxt = {}
        for s, c in frontier.items():
            for t in range(sft.n):
                if sft.trans[s][t]:
                    nxt[t] = nxt.get(t, 0) + c
        frontier = nxt
    return frontier.get(j, 0)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_validate_full_and_golden():
    assert Sft(FULL.trans) == FULL and Sft(GOLDEN.trans) == GOLDEN


def test_validate_zero_row():
    with pytest.raises(ZeroRowOrColumn) as exc:
        Sft(((1, 1), (0, 0)))
    assert (exc.value.symbol, exc.value.axis) == (1, "row")


def test_validate_zero_column():
    with pytest.raises(ZeroRowOrColumn) as exc:
        Sft(((1, 0), (1, 0)))
    assert (exc.value.symbol, exc.value.axis) == (1, "column")


def has_zero_row_or_column(trans) -> bool:
    return not (all(map(any, trans)) and all(map(any, zip(*trans))))


def test_entries_above_one_rejected():
    with pytest.raises(InvalidMatrix):
        make_sft([[2, 0], [1, 1]])


def test_non_square_rejected():
    with pytest.raises(InvalidMatrix):
        make_sft([[1, 1]])


def test_is_mixing_examples():
    assert is_mixing(FULL)
    assert is_mixing(GOLDEN)
    # 2-cycle permutation: powers alternate, never positive
    assert not is_mixing(make_sft([[0, 1], [1, 0]]))
    # single symbol: excluded by convention
    assert not is_mixing(make_sft([[1]]))


def test_is_mixing_permutation_invariant():
    rng = random.Random(7)
    base = make_sft([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    assert is_mixing(base)
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = make_sft(
            [[base.trans[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        )
        assert is_mixing(permuted) == is_mixing(base)


def reference_is_mixing(sft):
    # the former implementation: multiply by the matrix one power at a
    # time, up to the Wielandt bound
    n = sft.n
    if n < 2:
        return False
    bound = (n - 1) ** 2 + 1
    reach = [[bool(e) for e in row] for row in sft.trans]
    for _ in range(bound):
        if all(all(row) for row in reach):
            return True
        reach = [
            [any(reach[i][k] and sft.trans[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return False


def wielandt(n):
    # an n-cycle with one chord n-1 -> 1: primitive with exponent exactly
    # (n-1)^2 + 1, the largest possible
    return Sft(tuple(tuple(int(j == (i + 1) % n or (i == n - 1 and j == 1))
                           for j in range(n)) for i in range(n)))


def _power(trans, e):
    n = len(trans)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = [[int(any(out[i][k] and trans[k][j] for k in range(n))) for j in range(n)]
               for i in range(n)]
    return out


@st.composite
def small_matrices(draw):
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    trans = tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))
    if has_zero_row_or_column(trans):
        # the constructor refuses exactly these draws
        with pytest.raises(ZeroRowOrColumn):
            Sft(trans)
        assume(False)
    return Sft(trans)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(sft=small_matrices())
def test_is_mixing_matches_reference(sft):
    assert is_mixing(sft) == reference_is_mixing(sft)


@pytest.mark.parametrize("n", range(2, 9))
def test_is_mixing_wielandt_and_cycles(n):
    # the exponent of the Wielandt matrix equals the bound, so stopping one
    # squaring short would call it not mixing
    assert is_mixing(wielandt(n)) and reference_is_mixing(wielandt(n))
    trans = wielandt(n).trans
    assert not all(all(row) for row in _power(trans, (n - 1) ** 2))
    # a plain cycle and a cycle of two blocks are irreducible but imprimitive
    cycle = Sft(tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n)))
    assert not is_mixing(cycle) and not reference_is_mixing(cycle)
    if n % 2 == 0:
        # two blocks, every transition from one to the other: period 2
        blocks = Sft(tuple(tuple(int((i < n // 2) != (j < n // 2)) for j in range(n))
                           for i in range(n)))
        assert not is_mixing(blocks) and not reference_is_mixing(blocks)


def test_is_admissible():
    assert is_admissible(GOLDEN, (0, 1, 0))
    assert not is_admissible(GOLDEN, (0, 1, 1))
    assert is_admissible(GOLDEN, ())


def test_count_paths_golden_fibonacci():
    # (M^L)_{00} follows the Fibonacci recurrence
    assert count_paths(GOLDEN, 0, 0, 4) == 5
    for L in range(0, 25):
        assert count_paths(GOLDEN, 0, 0, L) == fib(L + 1)


def test_count_paths_full_shift():
    assert count_paths(FULL, 0, 1, 3) == 4
    for L in range(1, 12):
        assert count_paths(FULL, 0, 1, L) == 2 ** (L - 1)


def test_count_paths_identity():
    for sft in (FULL, GOLDEN):
        assert count_paths(sft, 0, 0, 0) == 1
        assert count_paths(sft, 0, 1, 0) == 0


@pytest.mark.parametrize("i,j,length", [(2, 0, 1), (0, 2, 1), (-1, 0, 1), (0, 0, -1)],
                         ids=["i=n", "j=n", "i=-1", "negative-length"])
def test_count_paths_rejects_symbols_and_lengths_out_of_range(i, j, length):
    with pytest.raises(ValueError):
        count_paths(GOLDEN, i, j, length)


def test_count_paths_recurrence():
    # count(i,j,L+1) = sum_m trans[i][m] * count(m,j,L), exact
    for sft in (FULL, GOLDEN, make_sft([[1, 1, 0], [1, 0, 1], [1, 1, 1]])):
        for L in range(0, 8):
            for i in range(sft.n):
                for j in range(sft.n):
                    lhs = count_paths(sft, i, j, L + 1)
                    rhs = sum(
                        sft.trans[i][m] * count_paths(sft, m, j, L)
                        for m in range(sft.n)
                    )
                    assert lhs == rhs


def test_count_paths_matches_brute_force():
    for sft in (FULL, GOLDEN, make_sft([[1, 1, 0], [1, 0, 1], [1, 1, 1]])):
        for L in range(0, 7):
            for i in range(sft.n):
                for j in range(sft.n):
                    assert count_paths(sft, i, j, L) == brute_count_paths(sft, i, j, L)


@st.composite
def small_mixing_sfts(draw):
    n = draw(st.integers(2, 5))
    cells = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    trans = tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))
    if has_zero_row_or_column(trans):
        with pytest.raises(ZeroRowOrColumn):
            Sft(trans)
        assume(False)
    sft = Sft(trans)
    assume(is_mixing(sft))
    return sft


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_count_paths_any_order_matches_brute_force(data):
    # a fresh system per example, so every memo starts cold; a window of 4
    # rows makes lengths up to 12 both advance past it and fall below it
    sft = data.draw(small_mixing_sfts())
    symbol = st.integers(0, sft.n - 1)
    queries = data.draw(st.lists(st.tuples(symbol, symbol, st.integers(0, 12)),
                                 min_size=1, max_size=24))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sft_mod, "_ROW_WINDOW", 4)
        for i, j, length in queries:
            assert count_paths(sft, i, j, length) == brute_count_paths(sft, i, j, length)


def test_count_paths_crosses_the_row_window():
    # 3 lies far below the rows kept after 400, so the memo restarts
    golden = make_sft([[1, 1], [1, 0]])
    for length in (400, 3, 400):
        assert count_paths(golden, 0, 0, length) == fib(length + 1)


def test_count_paths_big_exponent_exact():
    # arbitrary precision: value has hundreds of digits and exact parity
    big = count_paths(FULL, 0, 0, 1000)
    assert big == 2 ** 999


def brute_bridge_words(sft, length):
    # independent reference: every word of the length, in lexicographic
    # order, kept for (left, right) when each transition from left through
    # it to right is allowed
    words = [w for w in itertools.product(range(sft.n), repeat=length)
             if all(sft.allowed(s, t) for s, t in itertools.pairwise(w))]
    return {(left, right): tuple(w for w in words
                                 if sft.allowed(left, (*w, right)[0])
                                 and sft.allowed((left, *w)[-1], right))
            for left, right in itertools.product(range(sft.n), repeat=2)}


def random_nondegenerate_sfts(rng, count):
    """Seeded random 0/1 matrices of 1-4 symbols with no zero row or column."""
    while count:
        n = rng.randint(1, 4)
        trans = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        if all(any(row) for row in trans) and all(any(col) for col in zip(*trans)):
            count -= 1
            yield Sft(trans)


def test_bridge_words_matches_brute_force():
    seen = set()
    for sft in (FULL, GOLDEN, *random_nondegenerate_sfts(random.Random(20261019), 40)):
        for length in range(8):
            for (left, right), expected in brute_bridge_words(sft, length).items():
                assert bridge_words(sft, left, right, length) == expected
                seen.add((length if length < 2 else "longer", bool(expected)))
    # the empty word, one-symbol words and an empty result were all met,
    # with and without words
    assert seen == {(length, found) for length in (0, 1, "longer") for found in (False, True)}
    with pytest.raises(ValueError):
        bridge_words(GOLDEN, 0, 0, -1)
