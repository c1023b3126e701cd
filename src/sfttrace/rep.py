"""Exact operator-trace asymptotics in the fundamental representation on
square-summable sequences over the heteroclinic set: traces of
shift-conjugated products, the brute-force oracle that checks them, and
the trace reports of `trace-run`.  The representation's action on basis
points and its finite-rank products are in `operators`, which this module
does not import.

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
overlap pair costs the same at any gap.  What a sweep's rows share is
read once per (a, b), not once per k: a term-pair table, kept on the
unstable element for its last stable partner, reads each term's window,
diagonal flag, edge symbol and agreement bound, and holds the distinct
coefficient products as slots in (real, imag) order, one value each, and
the diagonal pairs grouped by (window gap, source, target), so a row
adds counts to slots and its pairs are the slots it counted, with no
merge and no sort.  Everything is exact integer arithmetic; the
lambda^{-2k} scaling is applied through logarithms of big integers when
plain floats would overflow, with lambda^{2k} and its logarithm computed
once per row.  The bridge
counts come from exact row vectors of the transfer matrix that
`sft.count_paths` keeps per system and source symbol and advances by one
step per unit of path length, so a sweep over k pays for each length once;
within one trace, the diagonal bridge pairs of one group share one count.
Each finite float coefficient is exactly p / 2^e, so a trace's total is
summed in one pass of plain integer multiply-adds to a real and an
imaginary numerator over one power-of-two denominator; a sweep's rows
share the numerators of their table's slots, decomposed once per (a, b),
and store no total of their own; an integer total prints straight from
its numerator, and only a non-integer one becomes a rational.  A trace
run streams its rows: `scaled_trace_rows` computes each when it is asked
for, and one fold, `write_rows`, renders, writes and drops it before the
next, so a sweep's memory does not grow with its length beyond two
numbers a row for the fit, and a row that fails leaves the rows before
it written.  It computes each row's total once: the CSV rendering prints
"0" exactly when the total is 0, so the exact-zero check reads the
rendered rows.  `TraceReport` holds the rows and target of a sweep for
the library and the tests; no run builds one.  Totals print in full however
many digits they have, past the interpreter's limit on int-to-string
conversions too; from about 900 digits on they print in pieces split at
cached powers of ten, which is faster than one `str` call, though still
quadratic.

An independent brute-force route (`trace_product_oracle`) enumerates
every basis point periodic outside the span its conjugated terms pin,
which holds every contributing point (`points.asymptotic_sequences`), and
applies the operators to each one; it must agree with the symbolic route
exactly.
It reads each term's source and target as fixed-range words, on the
span padded by the longest orbit period, so applying a term is a
compare and replace of a tuple prefix or suffix and the roundtrip test
is tuple equality.  It reads the words off the unshifted rays at
coordinates moved by the conjugating shift, so it builds no shifted
element.  The points come in groups that share their two tails, so each
group builds its padding once, compares it once with each term's words,
and keeps only the terms whose rays stay on its orbits and its padding,
the only ones a roundtrip can use.  The kept words lose the
padding, so a point is its middle, the symbols on the span, and each
kept unstable term meets only the middles that end in its source: all of
them when its source ends where they do.  Roundtrips are counted per
distinct coefficient product.  It never counts paths, reflects rays, or
builds, canonicalizes or sorts points.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from operator import attrgetter

from .algebra import AlgebraElement, SideMismatch, agreement_bound, tau_s, tau_u
from .perron import PerronData, require_finite
from .points import PeriodicOrbitSet, asymptotic_sequences, cycle, rays_agree
from .sft import count_paths
from .values import Value


class WindowTooSmall(ValueError):
    """Oracle enumeration window does not cover all affected basis points."""


# ---------------------------------------------------------------------------
# exact traces


class ExactTrace(Value):
    """A trace value as a sum of coefficient x big-integer-count pairs.

    Counts are nonnegative path counts; coefficients are the complex term
    products, always finite, each once, in (real, imag) order.  The
    symbolic trace reads its pairs off the slots of its term-pair table
    (`trace_product_detail`); the oracle and the tests build them with
    `from_pairs`, and both give equal pairs, though a coefficient may show
    the other sign of a zero.
    Aggregation is exact, so two routes to the same trace compare exactly,
    independent of summation order: each float is p / 2^e exactly, so
    every coefficient is a real and an imaginary numerator over one
    power-of-two denominator (the function `dyadic`), and the total is
    summed in one pass of integer multiply-adds (`_numerators`); `==` and
    the hash compare that total, not the pairs.  `dyadic`, kept beside the
    one field `pairs`, holds that denominator and the coefficients'
    numerators: a table-built row refers to its table's, shared by every
    row of a sweep, and a trace built any other way derives its own when
    summed.  No total is stored; `render` sums once per call, and a trace
    run renders each row once and holds none.
    """

    _fields = ("pairs",)  # `dyadic` is no field: the repr leaves it out

    def __init__(self, pairs: tuple[tuple[complex, int], ...], dyadic: tuple | None = None):
        # dyadic: (denominator, {coefficient: (real numerator, imaginary numerator)});
        # one store per field, as in `TraceDiagnostics`: a sweep builds one trace a row
        fields = self.__dict__
        fields["pairs"] = pairs
        fields["dyadic"] = dyadic

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
        return ExactTrace(tuple((c, merged[c]) for c in order))

    def _numerators(self) -> tuple[int, int, int]:
        """(real numerator, imaginary numerator, denominator) of the exact
        total: the sum of count x coefficient numerator over the pairs."""
        den, numerators = self.dyadic or dyadic(c for c, _ in self.pairs)
        re = im = 0
        for c, n in self.pairs:
            p, q = numerators[c]
            re += p * n
            im += q * n
        return re, im, den

    def exact_total(self) -> tuple:
        """(real part, imaginary part) of the exact total, as Fractions."""
        from fractions import Fraction  # only here, not on every start-up

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
        if im:
            return f"{_render_part(re, den)}{_render_part(im, den, '+')}j"
        if den == 1:  # integer coefficients: the numerator is the total
            return _decimal(re)
        return _render_part(re, den) if re % den else _decimal(re // den)

    def __eq__(self, other):
        # re / den == re' / den' for positive dens, in integers, and so the
        # imaginary parts
        if not isinstance(other, ExactTrace):
            return NotImplemented
        re, im, den = self._numerators()
        other_re, other_im, other_den = other._numerators()
        return re * other_den == other_re * den and im * other_den == other_im * den

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
        from fractions import Fraction

        x = Fraction(num, den)
        e = x.denominator.bit_length() - 1
        whole, frac = divmod(abs(x.numerator) * 5 ** e, 10 ** e)
        return (("-" if x < 0 else sign) + _decimal(whole)
                + ("." + _decimal(frac).zfill(e) if e else ""))


# One `str` call is quadratic in the digits; from about 900 digits on, a
# split at a cached power of ten and a `str` call per piece is faster
# (measured on CPython 3.11: about 5 % at 1000 digits, a third at 8400).
_SPLIT_BITS = 2990  # about 900 digits
_SPLIT = 450  # the smallest split size, in digits; the others are 450 * 2^j
_POWERS: dict = {}  # split size h -> 10^h, computed once


def _decimal(n: int) -> str:
    """str(n), also past the interpreter's limit on the digits of an
    int-to-string conversion (`sys.get_int_max_str_digits()`), which is left
    as it is.  An integer of at most about 900 digits (`_SPLIT_BITS`) takes
    one `str` call; a longer one, or one past a limit lowered below that, is
    split at 10^h into a high and a low piece, each printed the same way, the
    low one zero-padded to h digits.  The split size h is the least 450 * 2^j
    with 4h digits at least about n's, so each piece has at most about
    three quarters of n's digits and the high one is never 0; 10^h is
    computed once per size and kept in `_POWERS`.
    """
    if n < 0:
        return "-" + _decimal(-n)
    bits = n.bit_length()
    if bits <= _SPLIT_BITS:
        try:
            return str(n)
        except ValueError:  # past a digit limit below the threshold: split at 450
            pass
    h = _SPLIT
    while 14 * h < bits:  # 14 > 4 * log2(10): stop once 4h digits hold about n's
        h *= 2
    power = _POWERS.get(h)
    if power is None:
        power = _POWERS[h] = 10 ** h
    high, low = divmod(n, power)
    return _decimal(high) + _decimal(low).zfill(h)


def dyadic(coefficients) -> tuple[int, dict]:
    """(den, {c: (real numerator, imaginary numerator)}) for finite complex
    coefficients c, with c == complex(re / den, im / den) exactly: every
    finite float is p / 2^e, and den is the largest 2^e among them."""
    ratios = [(c, c.real.as_integer_ratio(), c.imag.as_integer_ratio()) for c in coefficients]
    den = max((d for _, re, im in ratios for _, d in (re, im)), default=1)
    return den, {c: (p * (den // d), q * (den // e)) for c, (p, d), (q, e) in ratios}


# ---------------------------------------------------------------------------
# exact traces of conjugated products


class TraceDiagnostics(Value):
    """How the trace decomposed: bridge-counting pairs vs pinned-overlap pairs,
    and how many off-diagonal pairs admitted a roundtrip fixed point."""

    _fields = ("bridge_pairs", "overlap_pairs", "offdiag_pairs", "offdiag_fixed_points")

    def __init__(self, bridge_pairs: int = 0, overlap_pairs: int = 0, offdiag_pairs: int = 0,
                 offdiag_fixed_points: int = 0):
        # one store per field: `update` with keywords builds a dict first
        fields = self.__dict__
        fields["bridge_pairs"] = bridge_pairs
        fields["overlap_pairs"] = overlap_pairs
        fields["offdiag_pairs"] = offdiag_pairs
        fields["offdiag_fixed_points"] = offdiag_fixed_points


class _PairTable:
    """Everything of the traces of a stable element a and an unstable element
    b that does not depend on k, built once per (a, b) from their terms.

    - Slots: the distinct nonzero coefficient products of the pairs that
      can contribute at some k (diagonal pairs, and pairs whose stable
      window exceeds the unstable one, the only ones ever in overlap),
      numbered in (real, imag) order, with the `finite` ones first.  `reps`
      holds each slot's one value, its first member in (i, j) order, so
      members that differ only in the sign of a zero show as the first;
      `dyadic` holds the finite ones' numerators over one power-of-two
      denominator, which every row of the sweep refers to and sums.
      `stable` holds, per stable term, (term, window, diagonal flag,
      agreement bound, the slot of each of its pairs), None for a product
      of 0 or a pair that never contributes.
    - `groups`: the diagonal pairs grouped by (m - n, source edge symbol,
      target edge symbol), in that order, each with the slots it adds to.
      A group at gap d holds bridge pairs from k = ceil(-d / 2) on and
      counts its paths of 2k + d + 1 steps once per row; `group_gaps` holds
      the d's for the one bisect that skips the others.  Groups with only
      zero products stay, so a row makes the same path counts whatever the
      coefficients.
    - `decoupled`: `decoupling_step(a, b)`.  From that k on no pair
      overlaps, and a row reads no stable term.
    """

    def __init__(self, a: AlgebraElement, b: AlgebraElement):
        self.partner = a
        # (coefficient, term, window, diagonal flag, edge symbol, agreement
        # bound) per term, in term order
        a_index, b_index = ([(c, t, t.window, t.is_diagonal, t.edge, agreement_bound(t))
                             for c, t in x.terms] for x in (a, b))
        self.windows = [m for _, _, m, _, _, _ in b_index]
        self.unstable = [(f, m, f_diag, highest) for _, f, m, f_diag, _, highest in b_index]
        members: dict = {}  # nonzero product -> the pairs that have it, in (i, j) order
        for i, (ca, _, n, e_diag, _, _) in enumerate(a_index):
            for j, (cb, _, m, f_diag, _, _) in enumerate(b_index):
                c = ca * cb
                if c and (n > m or e_diag and f_diag):
                    members.setdefault(c, []).append((i, j))
        finite, other = [], []
        for c in members:
            (finite if math.isfinite(c.real) and math.isfinite(c.imag) else other).append(c)
        finite.sort(key=attrgetter("real", "imag"))
        self.reps = finite + other
        self.finite = len(finite)
        self.dyadic = dyadic(finite)
        slots = [[None] * len(b_index) for _ in a_index]
        for slot, c in enumerate(self.reps):
            for i, j in members[c]:
                slots[i][j] = slot
        self.stable = [(e, n, e_diag, lowest, slots[i])
                       for i, (_, e, n, e_diag, _, lowest) in enumerate(a_index)]
        b_diagonal = [j for j, (_, _, f_diag, _) in enumerate(self.unstable) if f_diag]
        groups: dict = {}
        a_diagonal = 0
        for i, (_, _, n, e_diag, s, _) in enumerate(a_index):
            if not e_diag:
                continue
            a_diagonal += 1
            for j in b_diagonal:
                adds = groups.setdefault((self.windows[j] - n, s, b_index[j][4]), [])
                if slots[i][j] is not None:
                    adds.append(slots[i][j])
        self.groups = [(*key, adds) for key, adds in sorted(groups.items())]
        self.group_gaps = [d for d, *_ in self.groups]
        self.decoupled = decoupling_step(a, b)
        self.total = len(a.terms) * len(b_index)
        self.offdiag = self.total - a_diagonal * len(b_diagonal)


def _pair_table(a: AlgebraElement, b: AlgebraElement) -> _PairTable:
    """The term-pair table of (a, b), kept on b for b's last stable partner
    only, so a sweep builds it once and nothing outlives the elements.  The
    stash (`pair_table`) is no field of b, so b's equality, hash and repr
    ignore it, and the table holds nothing that refers back to b."""
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
    rays, so the pairs are not visited one by one: window order is an
    invariant of the element type (`AlgebraElement` sorts its terms when
    it is built), and one bisect per stable term splits the unstable terms
    into its overlap pairs, before the cut, and its bridge pairs.  An
    overlap pair reads whether each term's rays agree where the other term
    pins them off the two agreement bounds, and checks each target against
    the other source with one `points.rays_agree`, which reads the rays'
    bodies and periodic tails: no ray is shifted or truncated, and no cost
    grows with the gap.

    What does not depend on k comes from the term-pair table of (a, b)
    (`_PairTable`), built once and kept on b while a is its partner: the
    coefficient products as slots in (real, imag) order and the diagonal
    pairs grouped by (gap, source, target), so each distinct (source,
    target, length) is counted once per call.  A passing overlap pair adds
    1 to its slot, a bridge group its path count to each of its slots, and
    the row's pairs are the slots with a nonzero count, each with its one
    value, in slot order: pairs equal to those `ExactTrace.from_pairs`
    would make of the row's contributions, with no merge and no sort.  A
    counted slot that is not finite raises NonFiniteCoefficient.  The row
    stores no total: it refers to the table's slot numerators, so its total
    is count x slot numerator summed over its pairs, with no float
    decomposed again.  From `decoupling_step(a, b)` on no pair overlaps,
    and the stable terms are not visited at all.
    """
    if a.side != "stable" or b.side != "unstable":
        raise SideMismatch("trace needs a stable and an unstable element")
    if k < 0:
        raise ValueError("k must be >= 0")
    table = _pair_table(a, b)
    sft = p.sft
    twice = 2 * k
    windows, unstable = table.windows, table.unstable
    counts = [0] * len(table.reps)
    overlap = fixed = 0
    # from the decoupling step on, every pair is a bridge pair
    for e, window, e_diag, lowest, slots in table.stable if k < table.decoupled else ():
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
                if not (e_diag and f_diag):
                    fixed += 1
    # a diagonal bridge pair counts the admissible bridges; an off-diagonal
    # one has no fixed points, since the replacement would alter a pinned
    # coordinate
    groups, gaps = table.groups, table.group_gaps
    if gaps and gaps[0] < -twice:  # a group at a gap below -2k is not live yet
        groups = groups[bisect_left(gaps, -twice):]
    for gap, s, t, adds in groups:
        n = count_paths(sft, s, t, twice + gap + 1)
        if n:
            for slot in adds:
                counts[slot] += n
    if table.finite < len(counts):
        for slot in range(table.finite, len(counts)):
            if counts[slot]:
                require_finite(table.reps[slot], "trace coefficient")
    row = ExactTrace(tuple(compress(zip(table.reps, counts), counts)), table.dyadic)
    return row, TraceDiagnostics(table.total - overlap, overlap, table.offdiag, fixed)


def trace_product(a: AlgebraElement, b: AlgebraElement, k: int, p: PerronData) -> ExactTrace:
    return trace_product_detail(a, b, k, p)[0]


def decoupling_step(a: AlgebraElement, b: AlgebraElement) -> int:
    """The first n >= 0 at which the stable constraint window N - n of every
    term of a is at most the unstable one M + n of every term of b:
    max(0, ceil((N - M) / 2)) over the term pairs, 0 when a or b is zero.
    The terms are in window order, so the widest gap is a's last window
    less b's first."""
    if a.is_zero or b.is_zero:
        return 0
    return max(0, (a.terms[-1][1].window - b.terms[0][1].window + 1) // 2)


def _span(a: AlgebraElement, b: AlgebraElement, k: int) -> tuple[int, int]:
    """(lo, hi), the least and the greatest of the k-th conjugated terms'
    windows and rays' splices ((0, 0) without terms): every point that can
    contribute to the trace is periodic outside [lo, hi)."""
    ends = [x + shift for y, shift in ((a, -k), (b, k)) for _, t in y.terms
            for x in (t.window, t.target.splice, t.source.splice)]
    return min(ends, default=0), max(ends, default=0)


def required_window(a: AlgebraElement, b: AlgebraElement, k: int) -> int:
    """The least req >= 0 with the span [lo, hi] (`_span`) inside
    [-req, req]: max(-lo, hi)."""
    lo, hi = _span(a, b, k)
    return max(-lo, hi)


def trace_product_oracle(a: AlgebraElement, b: AlgebraElement, k: int, window: int,
                         p: PerronData, p_set: PeriodicOrbitSet,
                         q_set: PeriodicOrbitSet) -> ExactTrace:
    """Brute-force trace: enumerate basis points and apply the operators.

    `window` must be at least req = `required_window(a, b, k)`, else
    WindowTooSmall.  The span [lo, hi) (`_span`) widens by the caller's
    slack window - req on both sides to the run [start, end), inside
    [-window, window), and every sequence periodic outside the run is
    enumerated (`asymptotic_sequences`).  Every point w meets every
    conjugated unstable term, every image every conjugated stable term,
    and a roundtrip back to w counts its coefficient product once; the
    exact sum must equal `trace_product`.

    Every sequence involved is periodic outside [start, end), so (left
    orbit, symbols on [start - pad, end + pad), right orbit) determines it,
    with pad the longest orbit period of P, Q and the terms' rays: pad
    symbols fix each phase.  A term's source and target become words on
    that range once per call, read off the unshifted rays at coordinates
    moved by the shift, so no shifted element is built: alpha^k moves a
    stable term's window n to n - k and alpha^-k an unstable term's m to
    m + k, and a word of the conjugated term is a compare and replace of
    the prefix up to n - k, or of the suffix from m + k.

    The sequences come in groups with one pair of tails: one head, the pad
    symbols below start, and one tail, the pad symbols from end on.  So
    the padding is built and compared once per group, and so are the
    orbit tests: a roundtrip keeps both tails, so a group keeps only the
    unstable terms whose source and target follow its right orbit and its
    tail, and the stable terms whose source and target follow its left
    orbit and its head.  Two orbits can agree on the whole padded range,
    so the orbit tests are needed as well as the word compares.  The kept
    terms' words lose their padding, and a point of the group is its
    middle, the symbols on [start, end): for each kept unstable term, only
    the middles that end in its source are replaced, every middle when the
    source ends at end and so pins no middle symbol, and each image meets
    every kept stable term.  Each roundtrip adds 1 to the count of its
    coefficient product.
    """
    req = required_window(a, b, k)
    if window < req:
        raise WindowTooSmall(f"need window >= {req}, got {window}")
    lo, hi = _span(a, b, k)
    start, end = lo - (window - req), hi + (window - req)
    rays = [ray for x in (a, b) for _, t in x.terms for ray in (t.target, t.source)]
    pad = max((o.period for o in (*p_set.orbits, *q_set.orbits, *(r.orbit for r in rays))),
              default=0)
    # (coefficient, index in a middle, source orbit, source word, target
    # orbit, target word) of each conjugated term: a ray's symbol at m is
    # the unshifted one at m - k (unstable) or m + k (stable)
    futures = [(cb, f.window + k - start, f.source.orbit,
                tuple(map(f.source.symbol_at, range(f.window, end + pad - k))), f.target.orbit,
                tuple(map(f.target.symbol_at, range(f.window, end + pad - k))))
               for cb, f in b.terms]
    pasts = [(ca, e.window - k - start, e.source.orbit,
              tuple(map(e.source.symbol_at, range(start - pad + k, e.window))), e.target.orbit,
              tuple(map(e.target.symbol_at, range(start - pad + k, e.window))))
             for ca, e in a.terms]
    counts: dict = {}
    for left, lph, right, rph, middles in asymptotic_sequences(p.sft, p_set, q_set, end - start):
        head, tail = cycle(left.word, lph + 1 - pad, pad), cycle(right.word, rph, pad)
        # a roundtrip keeps both tails, so only terms that do can count here
        group_futures = [(cb, i, f_source[:-pad], g_target[:-pad])
                         for cb, i, f_orbit, f_source, g_orbit, g_target in futures
                         if f_orbit == right == g_orbit
                         and f_source[-pad:] == tail == g_target[-pad:]]
        group_pasts = [(ca, j, e_source[pad:], e_target[pad:])
                       for ca, j, e_orbit, e_source, t_orbit, e_target in pasts
                       if e_orbit == left == t_orbit and e_source[:pad] == head == e_target[:pad]]
        if not group_pasts:
            continue
        for cb, i, f_source, g_target in group_futures:
            # a term whose source ends at the run's end pins no middle symbol
            for middle in ([w for w in middles if w[i:] == f_source] if f_source else middles):
                y = middle[:i] + g_target
                for ca, j, e_source, e_target in group_pasts:
                    if y[:j] == e_source and e_target + y[j:] == middle:
                        c = ca * cb
                        counts[c] = counts.get(c, 0) + 1
    return ExactTrace.from_pairs(counts.items())


# ---------------------------------------------------------------------------
# trace reports


class TraceRow(Value):
    _fields = ("k", "trace", "scaled", "abs_err")

    def __init__(self, k: int, trace: ExactTrace, scaled: complex, abs_err: float):
        fields = self.__dict__  # one store per field, as in `TraceDiagnostics`
        fields["k"] = k
        fields["trace"] = trace
        fields["scaled"] = scaled
        fields["abs_err"] = abs_err


class TraceReport(Value):
    """Scaled trace values against the product of the two traces."""

    _fields = ("rows", "target")

    def __init__(self, rows: tuple[TraceRow, ...], target: complex):
        self.__dict__.update(rows=rows, target=target)


def fitted_decay_rate(ks, errors) -> float:
    """exp of the least-squares slope of log-error per step over the rows
    with nonzero error, given as the sequences of their k's and their
    errors; nan when fewer than two such rows exist.

    The slope is summed here, with `math.fsum` in the order of
    `statistics.linear_regression` on Python 3.11, which gives the same
    float there: importing `statistics` loads `fractions`, `decimal`,
    `numbers` and `random`, which cost every trace run a few
    milliseconds of start-up and nothing else uses.  It keeps one flag and
    one logarithm per row, no pair: a long sweep's fit adds little to its
    peak memory.
    """
    nonzero = [err > 0 for err in errors]
    ys = [math.log(err) for err in compress(errors, nonzero)]
    if len(ys) < 2:
        return math.nan
    k_bar = math.fsum(compress(ks, nonzero)) / len(ys)
    y_bar = math.fsum(ys) / len(ys)
    sxy = math.fsum((k - k_bar) * (y - y_bar) for k, y in zip(compress(ks, nonzero), ys))
    sxx = math.fsum((d := k - k_bar) * d for k in compress(ks, nonzero))
    return math.exp(sxy / sxx)


def format_complex(z: complex) -> str:
    """repr of the real part, plus the signed imaginary part when nonzero."""
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def write_rows(fh, target: complex, rows):
    """Write the CSV header and the line `k,trace,scaled,target,abs_err` of
    each `TraceRow` to `fh`, each as it comes, and return what the summary
    of a run reads: (the rows' k's, their errors, the first k of the
    trailing run of exactly zero traces or None).

    `render` computes each row's exact total once and prints "0" exactly
    when both parts are 0 (a nonzero integer has a nonzero digit, every
    other value prints a float repr or an exact decimal), so the zero check
    costs no second total.  A real scaled value is formatted inline, as
    `format_complex` would.  Of each row it keeps two numbers, however long
    its trace: its k, and its error as 8 bytes of an `array`.
    """
    # imported on use, like `datetime` in `cli.cmd_trace_run`: no other
    # command writes rows, and loading it (an extension module) costs about
    # 0.3 ms
    from array import array

    fh.write("k,trace,scaled,target,abs_err\n")
    write = fh.write
    rest = f",{format_complex(target)},"
    ks, errors = [], array("d")
    first_zero = None
    for row in rows:
        k, trace, scaled, abs_err = row.k, row.trace.render(), row.scaled, row.abs_err
        if scaled.imag:
            write(f"{k},{trace},{format_complex(scaled)}{rest}{abs_err!r}\n")
        else:
            write(f"{k},{trace},{scaled.real!r}{rest}{abs_err!r}\n")
        if trace != "0":
            first_zero = None
        elif first_zero is None:
            first_zero = k
        ks.append(k)
        errors.append(abs_err)
    return ks, errors, first_zero


def scaled_trace_rows(a: AlgebraElement, b: AlgebraElement, k_range, p: PerronData):
    """(target, rows): the product of the two traces, and a generator of the
    rows (k, exact trace, lambda^{-2k}-scaled value, error against the
    target) in increasing k, for distinct k given in any order.  The k are
    checked and the target computed here, before any row: ValueError
    naming a repeated k, and NonFiniteCoefficient when the target is beyond
    the float range.  Each row is computed when it is asked for, through
    `trace_product` as the module names it then, so a caller that writes
    each row and drops it holds one trace at a time."""
    ks = sorted(k_range)
    for k, after in zip(ks, ks[1:]):
        if k == after:
            raise ValueError(f"k = {k} is repeated; each row needs its own k")
    target = require_finite(tau_s(a, p) * tau_u(b, p), "tau_s(a) * tau_u(b)")
    lam = p.lam

    def rows():
        for k in ks:
            tr = trace_product(a, b, k, p)
            scaled = tr.scaled(lam, k)
            yield TraceRow(k, tr, scaled, abs(scaled - target))

    return target, rows()


def scaled_trace_sequence(a: AlgebraElement, b: AlgebraElement, k_range,
                          p: PerronData) -> TraceReport:
    """Every row of `scaled_trace_rows`, computed at once and held in one
    report with its target; the same errors, raised before any row.
    `trace-run` does not hold its rows: it streams them through
    `write_rows`."""
    target, rows = scaled_trace_rows(a, b, k_range, p)
    return TraceReport(tuple(rows), target)
