"""The fundamental representation on square-summable sequences over the
heteroclinic set, and exact operator-trace asymptotics.

Basis vectors are indexed by heteroclinic points.  A stable element acts
by past replacement wherever the point matches the term's source
cylinder; an unstable element replaces futures.  The single unitary
induced by the shift (u xi = xi o shift^{-1}) implements the algebra
automorphism on both sides.  Finite-rank products are this representation
applied to a finite set of columns: a term pair only moves points whose
past and future follow its two sources outside a bridge window, so
`product_operator` enumerates those points and takes each one's image
under both elements, with no image formula of its own.  Its entries are
exact sums of coefficient products, so the rank is exact (elimination
over Q(i)); the operator norm is a power-iteration estimate on the
nearest floats that never exceeds it.

Traces of products are computed symbolically, never by materializing a
Hilbert-space truncation.  For a stable term at window N and an unstable
term at window M, conjugating by the k-th shift power moves the
constraints to coordinates < N - k and >= M + k.  When the constraint
regions are disjoint, a diagonal pair contributes the exact number of
admissible bridges between them - a transfer-matrix count - and any
off-diagonal pair contributes nothing (the replacement would have to
alter a pinned coordinate).  When the regions overlap, all coordinates
of a candidate fixed point are pinned, and the contribution is 1 or 0
according to four ray-segment consistency checks.  The regions are
disjoint exactly when the gap N - M is at most 2k, so one bisect per
stable term over the unstable terms sorted by window splits its pairs:
off-diagonal bridge pairs are never visited.  Of the four checks, the
two that compare a term's target with its own source read one agreement
bound per term: the lowest coordinate where a stable term's rays differ,
the highest for an unstable term.  The two that compare a target with
the other term's source go through `points.rays_agree`, which compares
bodies symbol by symbol and periodic tails by orbit and phase, so an
overlap pair costs the same at any gap.  Each term's window, diagonal
flag, edge symbol and agreement bound are read once per element
(`AlgebraElement.index`), not once per k, and what a sweep's rows share is
read once per (a, b): a term-pair table, kept on the unstable element for
its last stable partner, holds every coefficient product, the distinct
ones as slots in (real, imag) order, and the diagonal pairs grouped by
(window gap, source, target), so a row adds counts to slots and reads its
pairs off them, with no merge and no sort.  Everything is exact
integer arithmetic; the lambda^{-2k} scaling is applied through
logarithms of big integers when plain floats would overflow, with
lambda^{2k} and its logarithm computed once per row.  The bridge
counts come from exact row vectors of the transfer matrix that
`sft.count_paths` keeps per system and source symbol and advances by one
step per unit of path length, so a sweep over k pays for each length once;
within one trace, the diagonal bridge pairs of one group share one count.
Each finite float coefficient is exactly p / 2^e, so a trace's total is
summed in one pass of plain integer multiply-adds to a real and an
imaginary numerator over one power-of-two denominator; an integer total
prints straight from its numerator, and only a non-integer one becomes a
rational.  A trace run computes each row's total once: the CSV
rendering prints "0" exactly when the total is 0, so the exact-zero
check reads the rendered rows.  Totals print in full however many digits
they have, past the interpreter's limit on int-to-string conversions too.

An independent brute-force route (`trace_product_oracle`) enumerates
every basis point that is periodic outside a window wide enough for all
contributing points (`points.asymptotic_sequences`) and applies the
operators to each one; it must agree with the symbolic route exactly.
It holds each point as a fixed-range word, (left orbit, symbols on the
window padded by the longest orbit period, right orbit), so applying a
term is a compare and replace of a tuple prefix or suffix and the
roundtrip test is tuple equality.  The points come in groups that share
their two tails, so each group builds its padding once and keeps only
the terms whose rays stay on its orbits, the only ones a roundtrip can
use; every point of the group then meets every kept term.  It never
counts paths, reflects rays, or builds, canonicalizes or sorts points.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import attrgetter, itemgetter

from .algebra import (
    AlgebraElement,
    SideMismatch,
    StableBisection,
    UnstableBisection,
    apply_alpha,
    tau_s,
    tau_u,
)
from .perron import NonFiniteCoefficient, PerronData, require_finite
from .points import (
    ENUMERATION_CAP,
    PRODUCT_WINDOW_CAP,
    HeteroclinicPoint,
    PeriodicOrbitSet,
    WindowOverflow,
    _cycle,
    asymptotic_sequences,
    make_point,
    matches_future,
    matches_past,
    rays_agree,
    splice_point,
)
from .sft import bridge_words, count_paths


class WindowTooSmall(ValueError):
    """Oracle enumeration window does not cover all affected basis points."""


class OrbitsNotDisjoint(ValueError):
    """The forward and backward orbit sets share an orbit."""


# ---------------------------------------------------------------------------
# exact traces


@dataclass(frozen=True)
class ExactTrace:
    """A trace value as a sum of coefficient x big-integer-count pairs.

    Counts are nonnegative path counts; coefficients are the complex term
    products, always finite, each once, in (real, imag) order.  The
    symbolic trace reads its pairs off the slots of its term-pair table
    (`trace_product_detail`); the oracle and the tests build them with
    `from_pairs`, and both give the same pairs, to the sign of a zero.
    Aggregation is exact, so two routes to the same trace compare exactly,
    independent of summation order: each float is p / 2^e exactly, so the
    total is summed in one pass of integer multiply-adds (`_numerators`) as
    a real and an imaginary numerator over the largest power-of-two
    denominator of the coefficients.  No total is stored; `render` sums
    once per call, and a trace run renders each row once.
    """

    pairs: tuple[tuple[complex, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "ExactTrace":
        """Merge equal coefficients and drop zero terms, in (real, imag)
        coefficient order; raises NonFiniteCoefficient for an inf or nan
        coefficient."""
        merged: dict = {}
        for c, n in pairs:
            if n and c:
                merged[c] = merged.get(c, 0) + n
        for c in merged:
            require_finite(c, "trace coefficient")
        order = sorted(merged, key=attrgetter("real", "imag"))
        # built from a list: tuple() of an iterator held about 30 bytes more
        # per trace, which a long sweep keeps once per row
        return ExactTrace(tuple([(c, merged[c]) for c in order]))

    def _numerators(self) -> tuple[int, int, int]:
        """(real numerator, imaginary numerator, denominator) of the exact
        total.  The denominator is the largest power of two among the parts
        summed so far: a larger one rescales the running numerators, and
        each part is brought up to it from its own."""
        re = im = 0
        den = 1
        for c, n in self.pairs:
            p, d = c.real.as_integer_ratio()
            q, e = c.imag.as_integer_ratio()
            if d > den or e > den:
                top = d if d > e else e
                re *= top // den
                im *= top // den
                den = top
            re += p * (den // d) * n
            im += q * (den // e) * n
        return re, im, den

    def exact_total(self) -> tuple[Fraction, Fraction]:
        re, im, den = self._numerators()
        return Fraction(re, den), Fraction(im, den)

    def as_int(self) -> int:
        """The exact value when it is a plain integer (raises otherwise)."""
        re, im, den = self._numerators()
        if im or re % den:
            raise ValueError("trace is not an integer")
        return re // den

    def scaled(self, lam: float, k: int) -> complex:
        """The value divided by lam^{2k}, big-integer safe.

        A count below 2^970, when lam^{2k} is too, is divided by lam^{2k} in
        plain floats (so the full shift's powers of two cancel exactly);
        any other goes through logarithms.  lam^{2k} and its logarithm are
        computed once per call, not once per pair.
        """
        in_range = 2 * k * math.log2(lam) < 970
        power = lam ** (2 * k) if in_range else None
        log_power = 2 * k * math.log(lam)
        out = 0j
        for c, n in self.pairs:
            if n == 0:
                x = 0.0
            elif in_range and n.bit_length() < 970:
                x = n / power
            else:
                x = math.exp(math.log(n) - log_power)
            out += c * x
        return out

    def render(self) -> str:
        """Decimal string in the shape of `format_complex`; an integer total
        prints straight from its numerator in full precision, and a part
        beyond the float range exactly, however many digits they have
        (`_decimal`)."""
        re, im, den = self._numerators()
        if not im and not re % den:
            return _decimal(re // den)
        if not im:
            return _render_part(re, den)
        return f"{_render_part(re, den)}{_render_part(im, den, '+')}j"

    def __eq__(self, other):
        if not isinstance(other, ExactTrace):
            return NotImplemented
        return self.exact_total() == other.exact_total()

    def __hash__(self):
        return hash(self.exact_total())


def _render_part(num: int, den: int, sign: str = "") -> str:
    """The float repr of the dyadic total num / den, with the `sign` format
    option.  Int true division is correctly rounded, so num / den is the
    float of the exact rational; a total beyond the float range, p/2^e in
    lowest terms, prints exactly as p*5^e/10^e."""
    try:
        return format(num / den, sign)
    except OverflowError:
        x = Fraction(num, den)
        e = x.denominator.bit_length() - 1
        whole, frac = divmod(abs(x.numerator) * 5 ** e, 10 ** e)
        return (("-" if x < 0 else sign) + _decimal(whole)
                + ("." + _decimal(frac).zfill(e) if e else ""))


def _decimal(n: int) -> str:
    """str(n), also past the interpreter's limit on the digits of an
    int-to-string conversion (`sys.get_int_max_str_digits()`), which is left
    as it is.  An integer within the limit takes the one `str` call; a longer
    one is split at 10^h, h half its digits, into a high and a low piece,
    each printed the same way, the low one zero-padded to h digits.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    h = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10 ** h)
    return _decimal(high) + _decimal(low).zfill(h)


# ---------------------------------------------------------------------------
# the representation


def _apply_stable(e: StableBisection, w: HeteroclinicPoint):
    """Past replacement, or None when w misses the source cylinder."""
    n = e.window
    if not matches_past(w, e.source, n):
        return None
    alpha, upper = e.target, max(n, w.m_right)
    return make_point(alpha.orbit, alpha.phase, alpha.splice,
                      alpha.body + w.segment(n, upper), w.right_orbit,
                      (w.right_phase + upper - w.m_right) % w.right_orbit.period, upper)


def _apply_unstable(f: UnstableBisection, w: HeteroclinicPoint):
    m = f.window
    if not matches_future(w, f.source, m):
        return None
    gamma, lower = f.target, min(m, w.n_left)
    return make_point(w.left_orbit, (w.left_phase + lower - w.n_left) % w.left_orbit.period,
                      lower, w.segment(lower, m) + gamma.body,
                      gamma.orbit, gamma.phase, gamma.splice)


def _moves(side: str, terms, w: HeteroclinicPoint):
    """(coefficient, image of w) for each (coefficient, term) that moves w."""
    apply = _apply_stable if side == "stable" else _apply_unstable
    for c, b in terms:
        y = apply(b, w)
        if y is not None:
            yield c, y


def apply_element(x: AlgebraElement, w: HeteroclinicPoint) -> dict:
    """The image of a basis vector: a finitely supported point -> coefficient map."""
    out: dict[HeteroclinicPoint, complex] = {}
    for c, y in _moves(x.side, x.terms, w):
        out[y] = out.get(y, 0j) + c
    return {pt: c for pt, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# finite-rank products


# operator_norm stops when its estimate grows by less than this, relatively,
# or after this many power-iteration steps
NORM_RTOL = 1e-15
NORM_ITERATIONS = 500


@dataclass
class FiniteOperator:
    """A finitely supported operator: (row point, column point) -> coefficient.

    Built from `exact`, every entry as an exact (real, imaginary) pair of
    Fractions; zero entries are dropped, and `entries` holds the nearest
    complex floats of the rest.  Raises NonFiniteCoefficient when an entry
    is beyond the float range.
    """

    exact: dict
    entries: dict = field(init=False)

    def __post_init__(self):
        self.exact = {key: z for key, z in self.exact.items() if any(z)}
        try:
            self.entries = {key: complex(float(re), float(im))
                            for key, (re, im) in self.exact.items()}
        except OverflowError:
            raise NonFiniteCoefficient("an operator entry exceeds the float range") from None

    @property
    def is_zero(self) -> bool:
        return not self.exact

    def __sub__(self, other: "FiniteOperator") -> "FiniteOperator":
        out = dict(self.exact)
        for key, (re, im) in other.exact.items():
            r, i = out.get(key, (0, 0))
            out[key] = (r - re, i - im)
        return FiniteOperator(out)

    def rank(self) -> int:
        """Exact rank: sparse Gaussian elimination over Q(i), with no
        threshold, so it does not change when every entry is scaled by a
        common factor.

        The rows of the exact entries are reduced one at a time against
        the pivot rows found so far, always at their lowest column, so a
        pivot row's other columns all lie above its pivot; each reduced
        row that is left nonzero becomes a pivot row and adds one to the
        rank.
        """
        columns: dict = {}
        rows: dict = {}
        for (r, c), z in self.exact.items():
            rows.setdefault(r, {})[columns.setdefault(c, len(columns))] = z
        pivots: dict[int, dict] = {}
        for row in rows.values():
            while row:
                j = min(row)
                pivot = pivots.get(j)
                if pivot is None:
                    pivots[j] = row
                    break
                # row -= (row[j] / pivot[j]) * pivot, which clears column j
                xr, xi = row[j]
                pr, pi = pivot[j]
                norm = pr * pr + pi * pi
                fr, fi = (xr * pr + xi * pi) / norm, (xi * pr - xr * pi) / norm
                for i, (pr, pi) in pivot.items():
                    xr, xi = row.get(i, (0, 0))
                    xr -= fr * pr - fi * pi
                    xi -= fr * pi + fi * pr
                    if xr or xi:
                        row[i] = (xr, xi)
                    else:
                        del row[i]
        return len(pivots)


def _norm(vec) -> float:
    return math.hypot(*map(abs, vec))


def operator_norm(t: FiniteOperator) -> float:
    """A lower estimate of the largest singular value ‖T‖; exactly 0.0 for
    the zero operator, exactly |c| for a one-entry one.

    T is the direct sum of the blocks that its entries link (rows and
    columns that share an entry), so ‖T‖ is the largest block norm.  The
    blocks go in decreasing order of the bound √(‖B‖₁‖B‖∞), and those whose
    bound does not exceed the best estimate so far are skipped.  No dense
    matrix is built.
    """
    if t.is_zero:
        return 0.0
    rows: dict = {}
    cols: dict = {}
    edges = []
    for (r, c), z in t.entries.items():
        edges.append((rows.setdefault(r, len(rows)), cols.setdefault(c, len(cols)), z))
    parent = list(range(len(rows) + len(cols)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    offset = len(rows)
    for i, j, _ in edges:
        parent[find(i)] = find(offset + j)
    blocks: dict = {}
    for edge in edges:
        blocks.setdefault(find(edge[0]), []).append(edge)
    bounded = sorted(((_block_bound(block), block) for block in blocks.values()),
                     key=lambda pair: -pair[0])
    rng = random.Random(0)
    best = 0.0
    for bound, block in bounded:
        if bound <= best:
            break
        best = max(best, _block_norm(block, rng))
    return best


def _block_bound(block) -> float:
    row_sums: dict = {}
    col_sums: dict = {}
    for i, j, z in block:
        row_sums[i] = row_sums.get(i, 0.0) + abs(z)
        col_sums[j] = col_sums.get(j, 0.0) + abs(z)
    return math.sqrt(max(row_sums.values())) * math.sqrt(max(col_sums.values()))


def _top_to_one(vec: dict) -> dict:
    """vec scaled so that its entry of largest modulus is exactly 1."""
    top = max(vec, key=lambda key: abs(vec[key]))
    scale = vec[top]
    out = {key: z / scale for key, z in vec.items()}
    out[top] = 1.0
    return out


def _block_norm(block, rng) -> float:
    """Power iteration on B*B over B's sparse rows and columns.

    Each step's Rayleigh estimate ‖Bx‖/‖x‖ is at most ‖B‖, and in exact
    arithmetic it does not decrease from step to step; the iteration stops
    once it grows by less than NORM_RTOL relatively, or after
    NORM_ITERATIONS steps.  The start gives every column a seeded generic
    weight, and x and Bx are scaled so that their largest entry is exactly
    1, which keeps every step in float range.
    """
    rows: dict = {}
    cols: dict = {}
    for i, j, z in block:
        rows.setdefault(i, []).append((j, z))
        cols.setdefault(j, []).append((i, z))
    best = 0.0
    x = {j: complex(rng.uniform(1, 2), rng.uniform(-1, 1)) for j in cols}
    previous = 0.0
    for _ in range(NORM_ITERATIONS):
        x = _top_to_one(x)
        y = {i: sum(z * x[j] for j, z in row) for i, row in rows.items()}
        estimate = _norm(y.values()) / _norm(x.values())
        best = max(best, estimate)
        if estimate <= previous * (1 + NORM_RTOL):
            break
        previous = estimate
        y = _top_to_one(y)
        x = {j: sum(z.conjugate() * y[i] for i, z in col) for j, col in cols.items()}
        if not any(x.values()):
            break
    return best


def product_operator(a: AlgebraElement, b: AlgebraElement, p: PerronData,
                     order: str = "ab") -> FiniteOperator:
    """The exact matrix of the product of a stable and an unstable element:
    the representation applied to a finite set of columns.

    order "ab" applies the unstable element first (the operator a.b);
    "ba" applies the stable element first.  A term pair at windows n and
    m can only move a point whose past below lo follows the stable source
    and whose future from hi follows the unstable source, with (lo, hi) =
    (min(n, m), m) for "ab" and (n, max(n, m)) for "ba": the first
    replacement must leave the second source intact.  Only the admissible
    bridge on [lo, hi) is free, so every pair has finitely many such
    columns, one per word of `bridge_words` between the past's terminal
    and the future's initial symbol, and each column's entries are its
    image under both elements, with every entry summed exactly
    (`FiniteOperator.exact`).
    Raises WindowOverflow, before enumerating, when a bridge is wider than
    PRODUCT_WINDOW_CAP, or when the columns, counted exactly by path
    counts, times their bridge steps exceed ENUMERATION_CAP, the symbol
    budget `enumerate` keeps too.
    """
    if a.side != "stable" or b.side != "unstable":
        raise SideMismatch("product needs a stable and an unstable element")
    if order not in ("ab", "ba"):
        raise ValueError("order must be 'ab' or 'ba'")
    first, second = (b, a) if order == "ab" else (a, b)
    sft = p.sft
    spans = []
    symbols = 0
    for _, e in a.terms:
        for _, f in b.terms:
            n, m = e.window, f.window
            lo, hi = (min(n, m), m) if order == "ab" else (n, max(n, m))
            if hi - lo > PRODUCT_WINDOW_CAP:
                raise WindowOverflow(
                    f"free window of width {hi - lo} exceeds cap {PRODUCT_WINDOW_CAP}")
            past, future = e.source.truncate(lo), f.source.truncate(hi)
            steps = hi - lo + 1
            symbols += count_paths(sft, past.terminal, future.initial, steps) * steps
            spans.append((past, future, hi - lo))
    if symbols > ENUMERATION_CAP:
        raise WindowOverflow(f"product columns need {symbols} bridge symbols, "
                             f"more than {ENUMERATION_CAP}")
    columns: dict = {}
    for past, future, width in spans:
        for bridge in bridge_words(sft, past.terminal, future.initial, width):
            columns[splice_point(past, bridge, future)] = None
    # each entry sums coefficient products exactly, as a Gaussian integer
    # over the product of the two elements' common denominators
    first_terms, first_den = _gaussian_numerators(first)
    second_terms, second_den = _gaussian_numerators(second)
    sums: dict = {}
    for w in columns:
        middle: dict = {}
        for (re, im), y in _moves(first.side, first_terms, w):
            r, i = middle.get(y, (0, 0))
            middle[y] = (r + re, i + im)
        for y, (yr, yi) in middle.items():
            for (re, im), v in _moves(second.side, second_terms, y):
                r, i = sums.get((v, w), (0, 0))
                sums[v, w] = (r + re * yr - im * yi, i + re * yi + im * yr)
    den = first_den * second_den
    return FiniteOperator({key: (Fraction(r, den), Fraction(i, den))
                           for key, (r, i) in sums.items()})


def _gaussian_numerators(x: AlgebraElement):
    """x's terms as ((re, im), term) with integer re and im, and the one
    power of two that they are all over: every finite float is p / 2^e."""
    ratios = [(c.real.as_integer_ratio(), c.imag.as_integer_ratio(), t) for c, t in x.terms]
    den = max((d for re, im, _ in ratios for _, d in (re, im)), default=1)
    return [((p * (den // d), q * (den // e)), t) for (p, d), (q, e), t in ratios], den


# ---------------------------------------------------------------------------
# exact traces of conjugated products


@dataclass(frozen=True)
class TraceDiagnostics:
    """How the trace decomposed: bridge-counting pairs vs pinned-overlap pairs,
    and how many off-diagonal pairs admitted a roundtrip fixed point."""

    bridge_pairs: int = 0
    overlap_pairs: int = 0
    offdiag_pairs: int = 0
    offdiag_fixed_points: int = 0


class _PairTable:
    """Everything of the traces of a stable element a and an unstable element
    b that does not depend on k, built once per (a, b) from their `index`.

    - `products[i][j]`: the coefficient product of stable term i and
      unstable term j, the same float product at every k.
    - Slots: the distinct nonzero products of the pairs that can contribute
      at some k (diagonal pairs, and pairs whose stable window exceeds the
      unstable one, the only ones ever in overlap), numbered in (real, imag)
      order, with the non-finite ones last; `reps` holds each slot's
      representative, its first member in (i, j) order.  `stable` holds,
      per stable term, (i, term, window, diagonal flag, agreement bound,
      the slot of each of its pairs), None for a product of 0 or a pair
      that never contributes.  A slot whose members differ in the sign of
      a zero, or that is not finite, is `tracked`: a row reads its
      representative, or raises for it, off the first pair that contributes
      to it at that k, as `ExactTrace.from_pairs` does.
    - `groups`: the diagonal pairs grouped by (m - n, source edge symbol,
      target edge symbol), in that order, each with the untracked slots it
      adds to and its pairs in tracked slots.  A group at gap d holds
      bridge pairs from k = ceil(-d / 2) on and counts its paths of
      2k + d + 1 steps once per row; `group_gaps` holds the d's for the one
      bisect that skips the others.  Groups with only zero products stay,
      so a row makes the same path counts whatever the coefficients.
    """

    def __init__(self, a: AlgebraElement, b: AlgebraElement):
        self.partner = a
        b_index = b.index
        self.windows = [m for _, _, m, _, _, _ in b_index]
        self.unstable = [(f, m, f_diag, highest) for _, f, m, f_diag, _, highest in b_index]
        self.products = [[ca * cb for cb, *_ in b_index] for ca, *_ in a.index]
        f_diags = [f_diag for _, _, f_diag, _ in self.unstable]
        members: dict = {}  # nonzero product -> the pairs that have it, in (i, j) order
        for i, (_, _, n, e_diag, _, _) in enumerate(a.index):
            for j, (m, f_diag, c) in enumerate(zip(self.windows, f_diags, self.products[i])):
                if c and (n > m or e_diag and f_diag):
                    members.setdefault(c, []).append((i, j))
        finite, other = [], []
        for c in members:
            (finite if math.isfinite(c.real) and math.isfinite(c.imag) else other).append(c)
        finite.sort(key=attrgetter("real", "imag"))
        self.reps = finite + other
        slots = [[None] * len(b_index) for _ in a.index]
        self.tracked = set()
        for slot, c in enumerate(self.reps):
            pairs = members[c]
            for i, j in pairs:
                slots[i][j] = slot
            if slot >= len(finite) or len(pairs) > 1 and len(
                    {repr(self.products[i][j]) for i, j in pairs}) > 1:
                self.tracked.add(slot)
        self.stable = [(i, e, n, e_diag, lowest, slots[i])
                       for i, (_, e, n, e_diag, _, lowest) in enumerate(a.index)]
        b_diagonal = [j for j, f_diag in enumerate(f_diags) if f_diag]
        groups: dict = {}
        a_diagonal = 0
        for i, (_, _, n, e_diag, s, _) in enumerate(a.index):
            if not e_diag:
                continue
            a_diagonal += 1
            for j in b_diagonal:
                adds, tracked = groups.setdefault((self.windows[j] - n, s, b_index[j][4]), ([], []))
                slot = slots[i][j]
                if slot in self.tracked:
                    tracked.append(((i, j), slot, self.products[i][j]))
                elif slot is not None:
                    adds.append(slot)
        self.groups = [(*key, adds, tracked) for key, (adds, tracked) in sorted(groups.items())]
        self.group_gaps = [d for d, *_ in self.groups]
        self.total = len(a.terms) * len(b_index)
        self.offdiag = self.total - a_diagonal * len(b_diagonal)


def _pair_table(a: AlgebraElement, b: AlgebraElement) -> _PairTable:
    """The term-pair table of (a, b), kept on b beside its index for b's
    last stable partner only, so a sweep builds it once and nothing outlives
    the elements."""
    table = b.__dict__.get("pair_table")
    if table is None or table.partner is not a:
        table = b.__dict__["pair_table"] = _PairTable(a, b)
    return table


def trace_product_detail(a: AlgebraElement, b: AlgebraElement, k: int,
                         p: PerronData) -> tuple[ExactTrace, TraceDiagnostics]:
    """Exact trace of (shift^k-conjugated a) x (shift^{-k}-conjugated b),
    with diagnostics.

    A stable term at window N and an unstable one at window M form a bridge
    pair when their gap N - M is at most 2k, else an overlap pair.  Only
    the diagonal bridge pairs count paths and only the overlap pairs check
    rays, so the pairs are not visited one by one: a reduced element's
    terms are in window order (`algebra.element`), and one bisect per
    stable term splits the unstable terms into its overlap pairs, before
    the cut, and its bridge pairs.  An overlap pair reads whether each
    term's rays agree where the other term pins them off the two agreement
    bounds, and checks each target against the other source with one
    `points.rays_agree`, which reads the rays' bodies and periodic tails:
    no ray is shifted or truncated, and no cost grows with the gap.

    What does not depend on k comes from the term-pair table of (a, b)
    (`_PairTable`), built once and kept on b while a is its partner: the
    coefficient products, their slots in (real, imag) order and the
    diagonal pairs grouped by (gap, source, target), so each distinct
    (source, target, length) is counted once per call.  A passing overlap
    pair adds 1 to its slot, a bridge group its path count to each of its
    slots, and the row's pairs are the slots with a nonzero count, in slot
    order: the pairs `ExactTrace.from_pairs` would make of the row's
    contributions, to the sign of a zero, with no merge and no sort.
    """
    if a.side != "stable" or b.side != "unstable":
        raise SideMismatch("trace needs a stable and an unstable element")
    if k < 0:
        raise ValueError("k must be >= 0")
    table = _pair_table(a, b)
    sft = p.sft
    twice = 2 * k
    windows, unstable, tracked = table.windows, table.unstable, table.tracked
    counts = [0] * len(table.reps)
    # ((i, j), slot, product) of each contribution to a tracked slot
    seen = []
    overlap = fixed = 0
    for i, e, window, e_diag, lowest, slots in table.stable:
        reach = window - twice
        cut = bisect_left(windows, reach)
        overlap += cut
        for j in range(cut):
            # all coordinates are pinned: the stable rays must agree below
            # the unstable window, the unstable rays from the stable window
            # on, and each target must meet the other term's source between
            f, m, f_diag, highest = unstable[j]
            if (m + twice <= lowest and highest < reach
                    and rays_agree(e.target, f.source, twice)
                    and rays_agree(e.source, f.target, twice)):
                slot = slots[j]
                if slot is not None:
                    counts[slot] += 1
                    if slot in tracked:
                        seen.append(((i, j), slot, table.products[i][j]))
                if not (e_diag and f_diag):
                    fixed += 1
    # a diagonal bridge pair counts the admissible bridges; an off-diagonal
    # one has no fixed points, since the replacement would alter a pinned
    # coordinate
    for gap, s, t, adds, tracked_adds in table.groups[bisect_left(table.group_gaps, -twice):]:
        n = count_paths(sft, s, t, twice + gap + 1)
        if n:
            for slot in adds:
                counts[slot] += n
            for position, slot, c in tracked_adds:
                counts[slot] += n
                seen.append((position, slot, c))
    reps = table.reps
    if seen:
        # a tracked slot shows, or raises for, its first contributing pair
        reps = list(reps)
        seen.sort(key=itemgetter(0))
        done = set()
        for _, slot, c in seen:
            if slot not in done:
                done.add(slot)
                reps[slot] = require_finite(c, "trace coefficient")
    # built from a list: tuple() of an iterator held about 30 bytes more per
    # trace, which a long sweep keeps once per row
    return ExactTrace(tuple(list(compress(zip(reps, counts), counts)))), TraceDiagnostics(
        table.total - overlap, overlap, table.offdiag, fixed)


def trace_product(a: AlgebraElement, b: AlgebraElement, k: int, p: PerronData) -> ExactTrace:
    return trace_product_detail(a, b, k, p)[0]


def required_window(a: AlgebraElement, b: AlgebraElement, k: int) -> int:
    """A window req such that every basis point that can contribute to the
    k-th conjugated trace is periodic outside [-req, req) (its canonical
    window may still end past req), and every conjugated ray's splice,
    start and end lies in [-req, req]."""
    req = 0
    for x, shift in ((a, -k), (b, k)):
        for _, e in x.terms:
            req = max(req, abs(e.window + shift),
                      abs(e.target.splice + shift), abs(e.source.splice + shift))
    return req


def trace_product_oracle(a: AlgebraElement, b: AlgebraElement, k: int, window: int,
                         p: PerronData, p_set: PeriodicOrbitSet,
                         q_set: PeriodicOrbitSet) -> ExactTrace:
    """Brute-force trace: enumerate basis points and apply the operators.

    Enumerates every basis point periodic outside [-window, window)
    (`asymptotic_sequences`); `window` must be at least
    `required_window(a, b, k)`, else WindowTooSmall, so that this covers
    every contributing point.  Every point w meets every conjugated
    unstable term, every image every conjugated stable term, and a
    roundtrip back to w counts its coefficient product once; the exact sum
    must equal `trace_product`.

    Points are words: (left orbit, symbols on [lo, hi), right orbit) with
    lo, hi = -window - pad, window + pad, pad the longest orbit period of
    P, Q and the conjugated terms' rays.  Every sequence involved is
    periodic outside [-window, window) and pad symbols fix each phase, so
    the word determines the sequence.  A term's source and target become
    words once per call: an unstable term at window m is a compare and
    replace of the suffix from m - lo, a stable term at window n of the
    prefix up to n - lo.

    The sequences come in groups with one pair of tails, so the padding
    is built once per group, and so are the orbit tests: a roundtrip
    keeps both orbits, so a group keeps only the unstable terms whose
    source and target follow its right orbit and the stable terms whose
    source and target follow its left orbit.  Two orbits can agree on the
    whole padded range, so these tests are needed as well as the word
    compares.  Each point of the group meets every kept term.
    """
    req = required_window(a, b, k)
    if window < req:
        raise WindowTooSmall(f"need window >= {req}, got {window}")
    a_k = apply_alpha(a, k)
    b_k = apply_alpha(b, -k)
    rays = [ray for x in (a_k, b_k) for _, t in x.terms for ray in (t.target, t.source)]
    pad = max((o.period for o in (*p_set.orbits, *q_set.orbits, *(r.orbit for r in rays))),
              default=0)
    lo, hi = -window - pad, window + pad
    futures = [(cb, f.window - lo, f.source.orbit,
                tuple(map(f.source.symbol_at, range(f.window, hi))), f.target.orbit,
                tuple(map(f.target.symbol_at, range(f.window, hi))))
               for cb, f in b_k.terms]
    pasts = [(ca, e.window - lo, e.source.orbit,
              tuple(map(e.source.symbol_at, range(lo, e.window))), e.target.orbit,
              tuple(map(e.target.symbol_at, range(lo, e.window))))
             for ca, e in a_k.terms]
    pairs = []
    for left, lph, right, rph, middles in asymptotic_sequences(p.sft, p_set, q_set, window):
        # a roundtrip keeps both orbits, so only terms that do can count here
        group_futures = [(cb, i, f_source, g_target)
                         for cb, i, f_orbit, f_source, g_orbit, g_target in futures
                         if f_orbit == right == g_orbit]
        group_pasts = [(ca, j, e_source, e_target)
                       for ca, j, e_orbit, e_source, t_orbit, e_target in pasts
                       if e_orbit == left == t_orbit]
        if not (group_futures and group_pasts):
            continue
        head, tail = _cycle(left.word, lph + 1 - pad, pad), _cycle(right.word, rph, pad)
        for middle in middles:
            word = head + middle + tail
            for cb, i, f_source, g_target in group_futures:
                if word[i:] != f_source:
                    continue
                y = word[:i] + g_target
                for ca, j, e_source, e_target in group_pasts:
                    if y[:j] == e_source and e_target + y[j:] == word:
                        pairs.append((ca * cb, 1))
    return ExactTrace.from_pairs(pairs)


# ---------------------------------------------------------------------------
# trace reports


@dataclass(frozen=True)
class TraceRow:
    k: int
    trace: ExactTrace
    scaled: complex
    abs_err: float


@dataclass(frozen=True)
class TraceReport:
    """Scaled trace values against the product of the two traces."""

    rows: tuple[TraceRow, ...]
    target: complex

    def write_csv(self, fh) -> list[bool]:
        """Write the header and one line per row to `fh`; return, per row,
        whether its trace is exactly zero.

        `render` computes each row's exact total once and prints "0" exactly
        when both parts are 0 (a nonzero integer has a nonzero digit, every
        other value prints a float repr or an exact decimal), so the zero
        flags cost no second total.
        """
        fh.write("k,trace,scaled,target,abs_err\n")
        target = format_complex(self.target)
        zeros = []
        for r in self.rows:
            trace = r.trace.render()
            zeros.append(trace == "0")
            fh.write(f"{r.k},{trace},{format_complex(r.scaled)},{target},{r.abs_err!r}\n")
        return zeros

    def final_error(self) -> float:
        return self.rows[-1].abs_err if self.rows else math.nan

    def fitted_decay_rate(self) -> float:
        """Least-squares slope of log-error per step over the rows with
        nonzero error; nan when fewer than two such rows exist."""
        pts = [(r.k, math.log(r.abs_err)) for r in self.rows if r.abs_err > 0]
        if len(pts) < 2:
            return math.nan
        slope, _ = statistics.linear_regression(*zip(*pts))
        return math.exp(slope)


def format_complex(z: complex) -> str:
    """repr of the real part, plus the signed imaginary part when nonzero."""
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def scaled_trace_sequence(a: AlgebraElement, b: AlgebraElement, k_range,
                          p: PerronData) -> TraceReport:
    """Rows (k, exact trace, lambda^{-2k}-scaled value, error against the
    report's target) for monotone k, where the target is the product of
    the two traces; NonFiniteCoefficient when that product is beyond the
    float range."""
    target = require_finite(tau_s(a, p) * tau_u(b, p), "tau_s(a) * tau_u(b)")
    rows = []
    for k in sorted(k_range):
        tr = trace_product(a, b, k, p)
        scaled = tr.scaled(p.lam, k)
        rows.append(TraceRow(k, tr, scaled, abs(scaled - target)))
    return TraceReport(tuple(rows), target)


# ---------------------------------------------------------------------------
# norm decay checks


def vanishing_product_check(a: AlgebraElement, b: AlgebraElement, p: PerronData,
                            p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                            n_max: int, products: tuple):
    """Norms of both products of the backward-conjugated stable element with
    the unstable one, for n = 0..n_max.

    Requires the forward and backward orbit sets to be disjoint (with a
    shared orbit the products need not die off).  With disjoint orbit
    sets the products are exactly zero once the overlap outgrows the
    point where the two periodic patterns can agree.  `products` is the
    caller's (a.b, b.a) pair, the n = 0 products, which are not built again.
    """
    if not p_set.isdisjoint(q_set):
        raise OrbitsNotDisjoint("orbit sets share an orbit")
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            t_ab, t_ba = products
        else:
            a_n = apply_alpha(a, -n)
            t_ab = product_operator(a_n, b, p, "ab")
            t_ba = product_operator(a_n, b, p, "ba")
        rows.append((n, operator_norm(t_ab), operator_norm(t_ba)))
    return rows


def decoupling_step(a: AlgebraElement, b: AlgebraElement) -> int:
    """The first n >= 0 at which the stable constraint window N - n of every
    term of a is at most the unstable one M + n of every term of b:
    max(0, ceil((N - M) / 2)) over the term pairs."""
    return max([0, *((e.window - f.window + 1) // 2 for _, e in a.terms for _, f in b.terms)])


def commutator_decay(a: AlgebraElement, b: AlgebraElement, p: PerronData, n_range):
    """Norms of the commutator of the two conjugated elements.

    From `decoupling_step(a, b)` on, both products coincide term by term
    (identical bridge expansions), so the commutator is exactly zero and
    is reported as such without materializing the two operators.
    """
    decoupled = decoupling_step(a, b)
    rows = []
    for n in sorted(n_range):
        if n >= decoupled:
            rows.append((n, 0.0))
            continue
        a_n = apply_alpha(a, n)
        b_n = apply_alpha(b, -n)
        t_ab = product_operator(a_n, b_n, p, "ab")
        t_ba = product_operator(a_n, b_n, p, "ba")
        rows.append((n, operator_norm(t_ab - t_ba)))
    return rows
