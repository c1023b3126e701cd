"""Transition-matrix model of a shift of finite type.

The space is the set of bi-infinite symbol sequences x with
trans[x_n][x_{n+1}] = 1 for every n, under the left shift
(shift(x))_n = x_{n+1}.  Only vertex shifts are supported: the matrix
has entries in {0, 1}.  Path counts are kept as exact Python integers
because they grow like lambda^L and serve as the ground truth for every
trace computation downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

# rows of trans^L kept per source symbol: a trace sweep asks, within one k,
# for lengths that differ by the spread of the term windows, and moves on
# by 2 per k, so a short window serves it while bounding the memory of
# rows whose entries grow like lambda^L
_ROW_WINDOW = 64


class ZeroRowOrColumn(ValueError):
    """A symbol with no successor or no predecessor."""

    def __init__(self, symbol: int, axis: str):
        self.symbol = symbol
        self.axis = axis
        super().__init__(f"symbol {symbol} has an all-zero {axis}")


class InvalidMatrix(ValueError):
    """Matrix is not square 0/1 (edge shifts with entries > 1 are rejected),
    or the labels do not name its symbols one to one."""


@dataclass(frozen=True)
class Sft:
    """Shift of finite type given by an n x n 0/1 transition matrix.

    trans[i][j] == 1 means symbol j may follow symbol i.  Immutable;
    all operations on it are pure functions.  `count_paths` keeps a memo
    of rows of trans^L on the instance; the memo is observationally pure:
    it changes no field, no comparison or hash, and no returned count.
    """

    trans: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None  # None names the symbols "0", ..., "n-1"

    def __post_init__(self):
        n = len(self.trans)
        if n < 1:
            raise InvalidMatrix("empty transition matrix")
        for row in self.trans:
            if len(row) != n:
                raise InvalidMatrix("transition matrix must be square")
            for e in row:
                # type() rather than isinstance(): True and 1.0 also equal 1
                if type(e) is not int or e not in (0, 1):
                    raise InvalidMatrix(
                        f"entry {e!r} is not the integer 0 or 1; "
                        "recode edge shifts as vertex shifts"
                    )
        labels = tuple(map(str, range(n))) if self.labels is None else tuple(self.labels)
        if len(labels) != n:
            raise InvalidMatrix("label count does not match matrix size")
        for i, lab in enumerate(labels):
            if type(lab) is not str:
                raise InvalidMatrix(f"symbol label {lab!r} is not a string")
            if lab in labels[:i]:
                raise InvalidMatrix(f"duplicate symbol label {lab!r}")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.trans)

    def allowed(self, i: int, j: int) -> bool:
        return self.trans[i][j] == 1

    @cached_property
    def successor_table(self) -> tuple[tuple[int, ...], ...]:
        """Each symbol's successors in ascending order, built once per system."""
        return tuple(tuple(j for j, e in enumerate(row) if e) for row in self.trans)

    def successors(self, i: int) -> tuple[int, ...]:
        return self.successor_table[i]

    @cached_property
    def transpose(self) -> "Sft":
        """The system of the transposed matrix: the time reversal of this one."""
        return Sft(tuple(zip(*self.trans)), self.labels)

    @cached_property
    def _path_rows(self) -> "_PathRows":
        return _PathRows(self)

    def label(self, i: int) -> str:
        return self.labels[i]

    def symbol_of(self, lab) -> int:
        """The symbol whose label is exactly `lab`; ValueError for anything
        else, a non-string included."""
        if lab not in self.labels:
            raise ValueError(f"unknown symbol label {lab!r}")
        return self.labels.index(lab)


class _PathRows:
    """The memo behind `count_paths`: for each source symbol i, a window of
    at most _ROW_WINDOW consecutive rows (trans^L)[i], L = first, first + 1, ...

    A longer length advances the newest row by the successor lists, one
    step at a time, and drops the oldest; a shorter one restarts from the
    identity row.
    """

    def __init__(self, sft: Sft):
        self._succ = sft.successor_table
        self._windows: dict[int, tuple[int, deque]] = {}

    def row(self, i: int, length: int) -> list[int]:
        first, rows = self._windows.get(i, (0, None))
        if rows is not None and first <= length < first + len(rows):
            # a sweep has almost always advanced this row already
            return rows[length - first]
        n = len(self._succ)
        if rows is None or length < first:
            first, rows = 0, deque([[int(s == i) for s in range(n)]], maxlen=_ROW_WINDOW)
        while first + len(rows) <= length:
            nxt = [0] * n
            for s, c in enumerate(rows[-1]):
                if c:
                    for t in self._succ[s]:
                        nxt[t] += c
            if len(rows) == rows.maxlen:
                first += 1
            rows.append(nxt)
        self._windows[i] = (first, rows)
        return rows[length - first]


def make_sft(matrix, labels=None) -> Sft:
    """Build and validate an Sft from nested sequences."""
    sft = Sft(tuple(tuple(row) for row in matrix), labels)
    validate(sft)
    return sft


def validate(sft: Sft) -> None:
    """Raise ZeroRowOrColumn unless every symbol has a successor and a predecessor."""
    for i, row in enumerate(sft.trans):
        if not any(row):
            raise ZeroRowOrColumn(i, "row")
    for j in range(sft.n):
        if not any(sft.trans[i][j] for i in range(sft.n)):
            raise ZeroRowOrColumn(j, "column")


def is_mixing(sft: Sft) -> bool:
    """True iff the transition matrix is primitive (some power entrywise positive).

    A primitive matrix has a positive power at the Wielandt bound (n-1)^2 + 1
    and at every power beyond it, so the matrix is squared until the power
    reaches the bound, stopping as soon as one power is positive.  Each row
    is a bitset, an int whose bit j is set when entry (i, j) is nonzero;
    row i of a square is the union of the rows its own bits name.  Single-symbol
    systems are treated as not mixing so that the measure machinery
    downstream always works with at least two symbols.
    """
    n = sft.n
    if n < 2:
        return False
    bound = (n - 1) ** 2 + 1
    full = (1 << n) - 1
    rows = [sum(e << j for j, e in enumerate(row)) for row in sft.trans]
    power = 1
    while not all(row == full for row in rows):
        if power >= bound:
            return False
        squared = []
        for row in rows:
            union = 0
            while row:
                low = row & -row
                union |= rows[low.bit_length() - 1]
                row ^= low
            squared.append(union)
        rows = squared
        power *= 2
    return True


def is_admissible(sft: Sft, word: tuple[int, ...]) -> bool:
    """True iff every adjacent transition of the symbol tuple is allowed (vacuous if short)."""
    for s in word:
        if not 0 <= s < sft.n:
            raise ValueError(f"symbol {s} out of range")
    return all(sft.allowed(a, b) for a, b in zip(word, word[1:]))


def word_levels(sft: Sft, first, depth: int):
    """Yield, for each length 0..depth, the list of admissible words of that
    length whose first symbol lies in `first`.

    Each level extends the one before by a symbol, so a sweep over every
    length visits each word once; within a level the words are in
    lexicographic order when `first` is sorted.  For the words of one
    length between two given symbols, `bridge_words` builds only half of
    each word this way.
    """
    level = [()]
    yield level
    if depth < 1:
        return
    level = [(s,) for s in first]
    yield level
    succ = sft.successor_table
    for _ in range(depth - 1):
        level = [w + (s,) for w in level for s in succ[w[-1]]]
        yield level


def bridge_words(sft: Sft, left: int, right: int, length: int) -> tuple:
    """Every admissible word of `length` symbols that may follow `left` and
    precede `right`, in lexicographic order.

    The words meet in the middle: heads of length // 2 symbols run
    forward from the successors of `left`, tails of the remaining symbols
    run backward from the predecessors of `right` (over the transpose),
    and each head is joined to every tail whose first symbol may follow
    its last (`left`, for the empty head of a one-symbol word).  Only
    words up to half the length are built level by level, and every word
    joined is returned, with no filter pass.  Length 0 gives the empty
    word alone when `right` may follow `left`.
    """
    if length < 0:
        raise ValueError("word length must be >= 0")
    if length == 0:
        return ((),) if sft.allowed(left, right) else ()
    half = length // 2
    for heads in word_levels(sft, sft.successors(left), half):
        pass
    back = sft.transpose
    for reversed_tails in word_levels(back, back.successors(right), length - half):
        pass
    starting: dict = {}  # first symbol -> its tails, in order
    for tail in sorted(w[::-1] for w in reversed_tails):
        starting.setdefault(tail[0], []).append(tail)
    joins = [[t for s in succ for t in starting.get(s, ())]
             for succ in sft.successor_table]
    return tuple([h + t for h in heads for t in joins[h[-1] if h else left]])


def count_paths(sft: Sft, i: int, j: int, length: int) -> int:
    """Exact number of admissible paths of `length` steps from i to j.

    Returns (trans^length)[i][j] as an arbitrary-precision integer;
    length 0 gives the identity matrix entry.  The row (trans^length)[i]
    is advanced from the rows memoized on `sft` by the successor lists, so
    a sweep of growing lengths costs one pass over the transitions per
    unit of length.
    """
    if length < 0:
        raise ValueError("path length must be >= 0")
    n = len(sft.trans)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("symbol out of range")
    return sft._path_rows.row(i, length)[j]
