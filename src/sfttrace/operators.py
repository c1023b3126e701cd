"""The fundamental representation on square-summable sequences over the
heteroclinic set, and the finite-rank operators that `theorem13` checks.

Basis vectors are indexed by heteroclinic points.  A stable element acts
by past replacement wherever the point matches the term's source
cylinder; an unstable element replaces futures.  The single unitary
induced by the shift (u xi = xi o shift^{-1}) implements the algebra
automorphism on both sides.  Finite-rank products are this representation
applied to a finite set of columns: a term pair only moves points whose
past and future follow its two sources outside a bridge window, so
`product_operator` enumerates those points and takes each one's image
under both elements, with no image formula of its own.  Its entries are
exact sums of coefficient products, Gaussian integers over one
denominator, so the rank is exact (elimination over Q(i)) and the
operator norm is the float nearest the exact norm (bisection with
fraction-free positive-definiteness tests on each block's Gram matrix).
The vanishing-product and commutator checks are norms of such products
along the shift.

Only `theorem13` and the acceptance battery use this module, so a trace
run does not import it.  It reads `dyadic` and `decoupling_step` from
`rep`; `rep`, and with it the brute-force oracle, reads nothing from here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    SideMismatch,
    StableBisection,
    UnstableBisection,
    apply_alpha,
)
from .perron import NonFiniteCoefficient, PerronData
from .points import (
    ENUMERATION_CAP,
    HeteroclinicPoint,
    PeriodicOrbitSet,
    WindowOverflow,
    matches_future,
    matches_past,
    splice_point,
)
from .rep import decoupling_step, dyadic
from .sft import bridge_words, count_paths
from .values import Value

# widest free bridge `product_operator` enumerates columns over
PRODUCT_WINDOW_CAP = 16


class OrbitsNotDisjoint(ValueError):
    """The forward and backward orbit sets share an orbit."""


# ---------------------------------------------------------------------------
# the representation


def _apply_stable(e: StableBisection, w: HeteroclinicPoint):
    """Past replacement, or None when w misses the source cylinder."""
    n = e.window
    if not matches_past(w, e.source):
        return None
    alpha, upper = e.target, max(n, w.m_right)
    return HeteroclinicPoint(alpha.orbit, alpha.phase, alpha.splice,
                             alpha.body + w.segment(n, upper), w.right_orbit,
                             (w.right_phase + upper - w.m_right) % w.right_orbit.period, upper)


def _apply_unstable(f: UnstableBisection, w: HeteroclinicPoint):
    m = f.window
    if not matches_future(w, f.source):
        return None
    gamma, lower = f.target, min(m, w.n_left)
    return HeteroclinicPoint(w.left_orbit,
                             (w.left_phase + lower - w.n_left) % w.left_orbit.period,
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


class FiniteOperator(Value):
    """A finitely supported operator: (row point, column point) -> coefficient.

    Every coefficient is a Gaussian integer in `numerators`, a (real,
    imaginary) pair of ints, over the one positive int `den`, as
    `product_operator` sums them.  Zero entries are dropped.  Raises
    NonFiniteCoefficient when an entry is beyond the float range: the
    largest part over den, one correctly rounded int division, overflows
    exactly when some entry's float does.  `numerators` is a dict, so the
    operator has no hash.  The stored form is not reduced: `==` compares
    numerators and den, so the same entries over 2 and over 4 differ.
    """

    _fields = ("numerators", "den")
    __hash__ = None

    def __init__(self, numerators: dict, den: int):
        if not isinstance(den, int) or den < 1:
            raise ValueError(f"operator denominator must be an int >= 1, not {den!r}")
        numerators = {key: z for key, z in numerators.items() if any(z)}
        try:  # int / int rounds correctly, and raises past the float range
            max((abs(x) for z in numerators.values() for x in z), default=0) / den
        except OverflowError:
            raise NonFiniteCoefficient("an operator entry exceeds the float range") from None
        self.__dict__.update(numerators=numerators, den=den)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def __sub__(self, other: "FiniteOperator") -> "FiniteOperator":
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {key: (re * s, im * s) for key, (re, im) in self.numerators.items()}
        for key, (re, im) in other.numerators.items():
            r, i = out.get(key, (0, 0))
            out[key] = (r - re * t, i - im * t)
        return FiniteOperator(out, den)

    def rank(self) -> int:
        """Exact rank: sparse Gaussian elimination over Q(i) of the
        numerators, which have the rank of the entries, with no threshold.

        The rows of the numerators are reduced one at a time against
        the pivot rows found so far, always at their lowest column, so a
        pivot row's other columns all lie above its pivot; each reduced
        row that is left nonzero becomes a pivot row and adds one to the
        rank.
        """
        columns: dict = {}
        rows: dict = {}
        for (r, c), z in self.numerators.items():
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
                fr, fi = Fraction(xr * pr + xi * pi, norm), Fraction(xi * pr - xr * pi, norm)
                for i, (pr, pi) in pivot.items():
                    xr, xi = row.get(i, (0, 0))
                    xr -= fr * pr - fi * pi
                    xi -= fr * pi + fi * pr
                    if xr or xi:
                        row[i] = (xr, xi)
                    else:
                        del row[i]
        return len(pivots)


def operator_norm(t: FiniteOperator) -> float:
    """The largest singular value ‖T‖, correctly rounded to a float, from the
    exact entries; exactly 0.0 for the zero operator.

    T is the direct sum of the blocks that its entries link (rows and
    columns that share an entry), so ‖T‖ is the largest block norm, each
    block a matrix of Gaussian integers over `t.den`.  The blocks go in
    decreasing order of their exact Frobenius norm, which bounds the block
    norm, and the scan stops at the first block whose bound cannot round
    above the best norm so far.  No dense matrix of T is built.  Raises
    NonFiniteCoefficient when ‖T‖ is beyond the float range.
    """
    rows: dict = {}
    cols: dict = {}
    parent: dict = {}  # rows are 0, 1, ..., columns -1, -2, ...

    def find(i):
        while parent.setdefault(i, i) != i:
            parent[i] = i = parent[parent[i]]
        return i

    for r, c in t.numerators:
        parent[find(rows.setdefault(r, len(rows)))] = find(~cols.setdefault(c, len(cols)))
    blocks: dict = {}
    for (r, c), (re, im) in t.numerators.items():
        blocks.setdefault(find(rows[r]), []).append((r, c, re, im))
    bounded = sorted(((sum(re * re + im * im for *_, re, im in block), block)
                      for block in blocks.values()), key=lambda pair: -pair[0])
    best = 0.0
    for frobenius, block in bounded:
        # a bound below the midpoint above best rounds to best at most
        if frobenius < ((Fraction(best) + Fraction(math.ulp(best)) / 2) * t.den) ** 2:
            break
        best = max(best, _block_norm(block, t.den))
    return best


def _block_norm(block, den: int) -> float:
    """‖B‖ correctly rounded, for a block of Gaussian-integer entries
    (row, column, real, imaginary) over den.

    ‖B‖² is the largest eigenvalue λ of the m × m Gram matrix G of the
    block's smaller side (the transpose has the same norm), whose entries
    are Gaussian integers.  Let y = √λ·2^k/den, k chosen so that y >= 2^54:
    scaled by 2^k, the points where floats near ‖B‖ = y/2^k round apart
    are integers, so ‖B‖ rounds as (2⌊y⌋ + sticky)/2^(k+1) does, sticky
    being 1 when y is not an integer, and one exact division rounds it.  ⌊y⌋ is bisected
    between the square roots of the largest diagonal entry and of the trace
    of G, both bounds on λ: s > y exactly when (s·den)²I − 4^k G is positive
    definite, and s = y when it is singular and semidefinite.  A one-row or
    one-column block has m = 1, where both bounds are ⌊y⌋.
    """
    if len({r for r, *_ in block}) > len({c for _, c, *_ in block}):
        block = [(c, r, re, im) for r, c, re, im in block]
    index, lines = {}, {}
    for r, c, re, im in block:
        lines.setdefault(c, []).append((index.setdefault(r, len(index)), re, im))
    gram = [[(0, 0)] * len(index) for _ in index]
    for line in lines.values():
        for i, xr, xi in line:
            for j, yr, yi in line:
                r, s = gram[i][j]
                gram[i][j] = (r + xr * yr + xi * yi, s + xi * yr - xr * yi)
    diagonal = [row[i][0] for i, row in enumerate(gram)]
    k = 54 + den.bit_length() - (max(diagonal).bit_length() - 1) // 2
    e = (den & -den).bit_length() - 1
    a, b = 4 ** max(k - e, 0), (den >> e) ** 2 * 4 ** max(e - k, 0)

    def compare(s):
        """The definiteness of (s·s·b)I − a·G: 1 when s > y, 0 when s = y."""
        return _definiteness([[(s * s * b * (i == j) - a * x, -a * z)
                               for j, (x, z) in enumerate(row)] for i, row in enumerate(gram)])

    lo, hi = (math.isqrt(x * a // b) for x in (max(diagonal), sum(diagonal)))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (lo, mid - 1) if compare(mid) > 0 else (mid, hi)
    norm = (2 * lo + (compare(lo) != 0)) / 2 ** (k + 1)
    if norm == math.inf:
        raise NonFiniteCoefficient("an operator norm exceeds the float range")
    return norm


def _definiteness(m: list) -> int:
    """1 if the Hermitian matrix m of Gaussian integers is positive definite,
    0 if it is positive semidefinite and singular, -1 otherwise.

    Fraction-free (Bareiss) symmetric elimination, in place: each stage
    pivots on the largest remaining diagonal entry and divides exactly by
    the previous pivot, so every entry stays a Gaussian integer, a minor of
    m.  The matrix is positive definite exactly when every pivot is positive
    (Sylvester); a stage whose diagonal has no positive entry is
    semidefinite only if all its entries are zero.
    """
    live, q = list(range(len(m))), 1  # q: the previous pivot
    while live:
        diagonal = [m[i][i][0] for i in live]
        p = max(diagonal)
        if p <= 0 or min(diagonal) < 0:
            return -1 if any(any(m[i][j]) for i in live for j in live) else 0
        k = live.pop(diagonal.index(p))
        for i in live:
            (xr, xi), row = m[i][k], m[i]
            for j in live:
                (yr, yi), (r, s) = m[k][j], row[j]
                row[j] = ((p * r - xr * yr + xi * yi) // q, (p * s - xr * yi - xi * yr) // q)
        q = p
    return 1


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
    image under both elements, with every entry summed exactly: a Gaussian
    integer over den², den the one power of two that both elements'
    coefficients are over (`rep.dyadic`).
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
    den, numerators = dyadic(c for x in (a, b) for c, _ in x.terms)
    first_terms, second_terms = ([(numerators[c], t) for c, t in x.terms] for x in (first, second))
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
    return FiniteOperator(sums, den * den)


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
