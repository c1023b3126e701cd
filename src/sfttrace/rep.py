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
under both elements, with no image formula of its own.

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
off-diagonal bridge pairs are never visited, and overlap pairs conjugate
each term's rays once per k, not once per pair.  Everything is exact
integer arithmetic; the lambda^{-2k} scaling is applied through
logarithms of big integers when plain floats would overflow.  The bridge
counts come from exact row vectors of the transfer matrix that
`sft.count_paths` keeps per system and source symbol and advances by one
step per unit of path length, so a sweep over k pays for each length once.
Each finite float coefficient is exactly p / 2^e, so a trace's total is
summed in one pass as one integer numerator over a power-of-two
denominator, with a single exact rational built at the end.  A trace run
computes each row's total once: the CSV rendering prints "0" exactly when
the total is 0, so the exact-zero check reads the rendered rows.

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
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    COEFF_EPS,
    AlgebraElement,
    SideMismatch,
    StableBisection,
    UnstableBisection,
    apply_alpha,
    tau_s,
    tau_u,
)
from .perron import PerronData
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
    point_key,
    shift_point,
    splice_point,
)
from .sft import count_paths, word_levels


class WindowTooSmall(ValueError):
    """Oracle enumeration window does not cover all affected basis points."""


class OrbitsNotDisjoint(ValueError):
    """The forward and backward orbit sets share an orbit."""


# ---------------------------------------------------------------------------
# exact traces


class NonFiniteCoefficient(ArithmeticError):
    """A coefficient product overflowed to inf or nan: the trace has no exact value."""


def _frac_to_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _dyadic_sum(terms) -> Fraction:
    """The exact sum of x * n over (finite float x, int n) pairs.

    Each float is p / 2^e exactly, so the sum is one integer numerator over
    the largest denominator seen so far, rescaled when a larger one comes:
    one pass of integer multiply-adds.  An integer total, the common case,
    becomes a Fraction without a gcd.
    """
    num, den = 0, 1
    for x, n in terms:
        p, d = x.as_integer_ratio()
        if d > den:
            num *= d // den
            den = d
        num += p * n * (den // d)
    return Fraction(num) if den == 1 else Fraction(num, den)


@dataclass(frozen=True)
class ExactTrace:
    """A trace value as a sum of coefficient x big-integer-count pairs.

    Counts are nonnegative path counts; coefficients are the complex term
    products, always finite.  Aggregation is exact, so two routes to the
    same trace compare exactly, independent of summation order: the real
    and imaginary totals are dyadic rationals, each summed in one pass as
    one integer numerator over the largest power-of-two denominator of its
    coefficients.  No total is stored; `render` computes it once per call,
    and a trace run renders each row once.
    """

    pairs: tuple[tuple[complex, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "ExactTrace":
        """Merge equal coefficients and drop zero terms; raises
        NonFiniteCoefficient for an inf or nan coefficient."""
        merged: dict = {}
        for c, n in pairs:
            if n and c != 0:
                merged[c] = merged.get(c, 0) + n
        for c in merged:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise NonFiniteCoefficient(f"trace coefficient {c!r} is not finite")
        return ExactTrace(tuple(sorted(
            ((c, n) for c, n in merged.items() if n),
            key=lambda p: (p[0].real, p[0].imag),
        )))

    def exact_total(self) -> tuple[Fraction, Fraction]:
        return (_dyadic_sum((c.real, n) for c, n in self.pairs),
                _dyadic_sum((c.imag, n) for c, n in self.pairs))

    def total(self) -> complex:
        return _to_complex(*self.exact_total())

    def as_int(self) -> int:
        """The exact value when it is a plain integer (raises otherwise)."""
        re, im = self.exact_total()
        if im != 0 or re.denominator != 1:
            raise ValueError("trace is not an integer")
        return re.numerator

    def scaled(self, lam: float, k: int) -> complex:
        """The value divided by lam^{2k}, big-integer safe."""
        out = 0j
        for c, n in self.pairs:
            out += c * _scaled_count(n, lam, k)
        return out

    def render(self) -> str:
        """Decimal string; exact integers in full precision."""
        re, im = self.exact_total()
        if im == 0 and re.denominator == 1:
            return str(re.numerator)
        return format_complex(_to_complex(re, im))

    def __eq__(self, other):
        if not isinstance(other, ExactTrace):
            return NotImplemented
        return self.exact_total() == other.exact_total()

    def __hash__(self):
        return hash(self.exact_total())


def _to_complex(re: Fraction, im: Fraction) -> complex:
    return complex(_frac_to_float(re), _frac_to_float(im))


def _scaled_count(n: int, lam: float, k: int) -> float:
    if n == 0:
        return 0.0
    # stay in exact float arithmetic while representable (keeps the full
    # shift's powers of two exactly cancelling); fall back to logs
    if n.bit_length() < 970 and 2 * k * math.log2(lam) < 970:
        return n / lam ** (2 * k)
    return math.exp(math.log(n) - 2 * k * math.log(lam))


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


def apply_element(x: AlgebraElement, w: HeteroclinicPoint) -> dict:
    """The image of a basis vector: a finitely supported point -> coefficient map."""
    apply = _apply_stable if x.side == "stable" else _apply_unstable
    out: dict[HeteroclinicPoint, complex] = {}
    for c, b in x.terms:
        y = apply(b, w)
        if y is not None:
            out[y] = out.get(y, 0j) + c
    return {pt: c for pt, c in out.items() if c != 0}


def apply_to_combination(x: AlgebraElement, vec: dict) -> dict:
    out: dict[HeteroclinicPoint, complex] = {}
    for w, cw in vec.items():
        for y, cy in apply_element(x, w).items():
            out[y] = out.get(y, 0j) + cy * cw
    return {pt: c for pt, c in out.items() if c != 0}


def unitary_conjugation_check(x: AlgebraElement, n: int, sample_points) -> bool:
    """Verify that the shift unitary implements the automorphism on samples:
    applying the n-shifted element equals conjugating the action by u^n."""
    xn = apply_alpha(x, n)
    for w in sample_points:
        lhs = apply_element(xn, w)
        inner = apply_element(x, shift_point(w, -n))
        rhs = {shift_point(z, n): c for z, c in inner.items()}
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# finite-rank products


@dataclass
class FiniteOperator:
    """A finitely supported operator: (row point, column point) -> coefficient."""

    entries: dict = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __sub__(self, other: "FiniteOperator") -> "FiniteOperator":
        out = dict(self.entries)
        for key, c in other.entries.items():
            out[key] = out.get(key, 0j) - c
        return FiniteOperator({k: c for k, c in out.items() if c != 0})

    def _matrix(self):
        rows = sorted({r for r, _ in self.entries}, key=point_key)
        cols = sorted({c for _, c in self.entries}, key=point_key)
        ridx = {p: i for i, p in enumerate(rows)}
        cidx = {p: i for i, p in enumerate(cols)}
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        for (r, c), v in self.entries.items():
            mat[ridx[r], cidx[c]] = v
        return mat

    def rank(self, tol: float = 1e-10) -> int:
        if self.is_zero:
            return 0
        return int(np.linalg.matrix_rank(self._matrix(), tol=tol))


def operator_norm(t: FiniteOperator) -> float:
    """Largest singular value of the finite matrix (0 for the zero operator)."""
    if t.is_zero:
        return 0.0
    return float(np.linalg.svd(t._matrix(), compute_uv=False)[0])


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
    columns, and each column's entries are its image under both elements.
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
        for bridges in word_levels(sft, sft.successors(past.terminal), width):
            pass
        for bridge in bridges:
            if sft.allowed(bridge[-1] if bridge else past.terminal, future.initial):
                columns[splice_point(past, bridge, future)] = None
    entries = {}
    for w in columns:
        for v, c in apply_to_combination(second, apply_element(first, w)).items():
            if abs(c) >= COEFF_EPS:
                entries[(v, w)] = c
    return FiniteOperator(entries)


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
    the cut, and its bridge pairs.  Each term's rays are conjugated once,
    and each truncation check is made once per cut.  Contributions come
    in term-pair order.
    """
    if a.side != "stable" or b.side != "unstable":
        raise SideMismatch("trace needs a stable and an unstable element")
    if k < 0:
        raise ValueError("k must be >= 0")
    sft = p.sft
    windows, b_diag = [], []
    for cb, f in b.terms:
        m = f.window
        windows.append(m)
        if f.is_diagonal:
            b_diag.append((cb, m, f.source.initial))
    pairs = []
    overlap = fixed = a_diag = 0
    # j -> unstable term j's rays, conjugated, and {n: whether they agree from n on}
    conjugated: dict = {}
    for ca, e in a.terms:
        window = e.window
        cut = bisect_left(windows, window - 2 * k)
        overlap += cut
        e_diag = e.is_diagonal
        if cut:
            # all coordinates are pinned: four ray-segment consistency checks
            n = window - k
            alpha, beta = e.target.shift(k), e.source.shift(k)
            agree: dict = {}  # m -> whether alpha and beta agree below m
            for j in range(cut):
                cb, f = b.terms[j]
                m = windows[j] + k
                if m not in agree:
                    agree[m] = alpha.truncate(m) == beta.truncate(m)
                if j not in conjugated:
                    conjugated[j] = (f.target.shift(-k), f.source.shift(-k), {})
                gamma, delta, kept = conjugated[j]
                if n not in kept:
                    kept[n] = gamma.truncate(n) == delta.truncate(n)
                if (agree[m] and kept[n]
                        and all(alpha.symbol_at(x) == delta.symbol_at(x) for x in range(m, n))
                        and all(gamma.symbol_at(x) == beta.symbol_at(x) for x in range(m, n))):
                    pairs.append((ca * cb, 1))
                    if not (e_diag and f.is_diagonal):
                        fixed += 1
        if e_diag:
            # a diagonal bridge pair counts the admissible bridges; an
            # off-diagonal one has no fixed points, since the replacement
            # would alter a pinned coordinate
            a_diag += 1
            s = e.source.terminal
            for cb, m, t in b_diag:
                if window - m <= 2 * k:
                    pairs.append((ca * cb, count_paths(sft, s, t, 2 * k - window + m + 1)))
    total = len(a.terms) * len(windows)
    return ExactTrace.from_pairs(pairs), TraceDiagnostics(
        total - overlap, overlap, total - a_diag * len(b_diag), fixed)


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
    target: complex
    abs_err: float


@dataclass(frozen=True)
class TraceReport:
    """Scaled trace values against the product of the two traces."""

    rows: tuple[TraceRow, ...]
    target: complex
    lam: float

    def write_csv(self, fh) -> list[bool]:
        """Write the header and one line per row to `fh`; return, per row,
        whether its trace is exactly zero.

        `render` computes each row's exact total once and prints "0" exactly
        when both parts are 0 (a nonzero integer has a nonzero digit, every
        other value prints as a float repr), so the zero flags cost no
        second total.
        """
        fh.write("k,trace,scaled,target,abs_err\n")
        zeros = []
        for r in self.rows:
            trace = r.trace.render()
            zeros.append(trace == "0")
            fh.write(f"{r.k},{trace},{format_complex(r.scaled)},"
                     f"{format_complex(r.target)},{r.abs_err!r}\n")
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
    """Rows (k, exact trace, lambda^{-2k}-scaled value, target, error) for
    monotone k, where the target is the product of the two traces."""
    target = tau_s(a, p) * tau_u(b, p)
    rows = []
    for k in sorted(k_range):
        tr = trace_product(a, b, k, p)
        scaled = tr.scaled(p.lam, k)
        rows.append(TraceRow(k, tr, scaled, target, abs(scaled - target)))
    return TraceReport(tuple(rows), target, p.lam)


# ---------------------------------------------------------------------------
# norm decay checks


def vanishing_product_check(a: AlgebraElement, b: AlgebraElement, p: PerronData,
                            p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                            n_max: int):
    """Norms of both products of the backward-conjugated stable element with
    the unstable one, for n = 0..n_max.

    Requires the forward and backward orbit sets to be disjoint (with a
    shared orbit the products need not die off).  With disjoint orbit
    sets the products are exactly zero once the overlap outgrows the
    point where the two periodic patterns can agree.
    """
    if not p_set.isdisjoint(q_set):
        raise OrbitsNotDisjoint("orbit sets share an orbit")
    rows = []
    for n in range(n_max + 1):
        a_n = apply_alpha(a, -n)
        t_ab = product_operator(a_n, b, p, "ab")
        t_ba = product_operator(a_n, b, p, "ba")
        rows.append((n, operator_norm(t_ab), operator_norm(t_ba)))
    return rows


def commutator_decay(a: AlgebraElement, b: AlgebraElement, p: PerronData, n_range):
    """Norms of the commutator of the two conjugated elements.

    Once the stable constraint window N - n drops below the unstable one
    M + n for every term pair, both products coincide term by term
    (identical bridge expansions), so the commutator is exactly zero and
    is reported as such without materializing the two operators.
    """
    rows = []
    for n in sorted(n_range):
        decoupled = all(
            e.window - n <= f.window + n
            for _, e in a.terms
            for _, f in b.terms
        )
        if decoupled:
            rows.append((n, 0.0))
            continue
        a_n = apply_alpha(a, n)
        b_n = apply_alpha(b, -n)
        t_ab = product_operator(a_n, b_n, p, "ab")
        t_ba = product_operator(a_n, b_n, p, "ba")
        rows.append((n, operator_norm(t_ab - t_ba)))
    return rows
