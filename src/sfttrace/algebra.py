"""Locally constant *-algebras over stable and unstable equivalence.

A stable elementary bisection is the clopen graph of a past-replacement
map: on the cylinder of points whose coordinates below a window N match
the source ray, replace them with the target ray.  Requiring the two
rays to share their terminal symbol makes the replacement admissible for
every continuation, so the map is total on its cylinder.  Unstable
bisections replace futures, mirrored.  Algebra elements are finite
complex combinations of such bisections; convolution is the bilinear
extension of graph composition, and the adjoint swaps target and source
while conjugating coefficients.

Composition never needs a common-window refinement: when windows differ,
the wider constraint simply extends one ray of the result, and the
compatibility test is equality of ray restrictions.  The shift acts as
an automorphism by sliding every ray one step (window N -> N-1), under
which the stable trace scales by lambda and the unstable one by 1/lambda
(the leaf measures' shift scaling).

Both sides share one bisection class body: the invariants, `window`,
`is_diagonal`, `shift`, `adjoint` and `sort_key` are written once, and
`StableBisection`/`UnstableBisection` only name which ray coordinate is
the window (a left ray's `end`, a right ray's `start`) and which symbol
sits next to it (`terminal`, `initial`).  `BISECTIONS` maps a side name
to its class, and `tau` differs by side only in its leaf measure.

Composition and refinement are written for the stable side only.  The
unstable side goes through time reversal x_m -> x_{-1-m} (`points.reflect`):
an unstable bisection at window M over A is the stable bisection at
window -M over the transpose whose rays are the reflected rays, with
phase (p - 1 - phase - t) % p over the reversed orbit (t its rotation).
Reflection preserves composition and refinement, so the unstable result
is the reflected stable one.

The two ray classes stay apart, and so do `tau_s`/`tau_u` and the class
names: the brute-force oracle reads right rays directly, never through
the reflection it checks, and the benchmark reads both classes by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Union

from .perron import PerronData, mu_s_data, mu_u_data, require_finite
from .points import LeftRay, RightRay, lowest_difference, reflect
from .sft import Sft, word_levels


class SideMismatch(ValueError):
    pass


class BisectionError(ValueError):
    pass


@dataclass(frozen=True)
class _Bisection:
    """The replacement map of both sides, written once.

    A side names, as class keywords, the ray coordinate that is the window
    (`at`) and the ray's symbol next to it (`edge`): a stable bisection's
    window is its rays' `end` and the edge their `terminal` symbol, an
    unstable one's the `start` and the `initial` symbol.  Target and source
    must share both.  `window` is one property hop to the target ray's
    coordinate, since the trace loops read it for every term.
    """

    target: LeftRay | RightRay
    source: LeftRay | RightRay

    def __init_subclass__(cls, at: str, edge: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._at, cls._edge, cls._edge_name = attrgetter(at), attrgetter(edge), edge
        cls.window = property(attrgetter(f"target.{at}"))

    def __post_init__(self):
        if self._at(self.target) != self._at(self.source):
            raise BisectionError("target and source rays must share their window")
        if self._edge(self.target) != self._edge(self.source):
            raise BisectionError(f"target and source must share the {self._edge_name} symbol")

    @property
    def is_diagonal(self) -> bool:
        return self.target == self.source

    def shift(self, n: int):
        return type(self)(self.target.shift(n), self.source.shift(n))

    def adjoint(self):
        return type(self)(self.source, self.target)

    def sort_key(self):
        """The window, then each ray's window, splice, body, orbit and phase."""
        w, t, s = self.window, self.target, self.source
        return (w, (w, t.splice, t.body, t.orbit.word, t.phase),
                (w, s.splice, s.body, s.orbit.word, s.phase))


@dataclass(frozen=True)
class StableBisection(_Bisection, at="end", edge="terminal"):
    """Past replacement: send source-cylinder points to target-past points."""

    target: LeftRay
    source: LeftRay


@dataclass(frozen=True)
class UnstableBisection(_Bisection, at="start", edge="initial"):
    """Future replacement on the cylinder of points matching the source from
    the window on."""

    target: RightRay
    source: RightRay


Bisection = Union[StableBisection, UnstableBisection]
BISECTIONS = {"stable": StableBisection, "unstable": UnstableBisection}


@dataclass(frozen=True)
class AlgebraElement:
    """Reduced finite combination of same-side bisections.

    Terms are merged by bisection, exact-zero coefficients dropped, and the
    term order is fixed (by `sort_key`, window first), so equal reduced
    elements compare equal.  The zero element has no terms.  `index` reads
    each term's window, diagonal flag, edge symbol and agreement bound once
    per element, for the trace loops that visit every term once per k.
    Beside it, an unstable element keeps the term-pair table that
    `rep.trace_product_detail` builds with its last stable partner
    (`pair_table`); neither is a field, so equality, hash and repr ignore
    them, and the table holds nothing that refers back to the element.
    """

    side: str
    terms: tuple[tuple[complex, Bisection], ...]

    @cached_property
    def index(self) -> tuple[tuple[complex, Bisection, int, bool, int, float], ...]:
        """(coefficient, term, window, is_diagonal, edge symbol, agreement
        bound) per term, in term order; the edge symbol is the sources'
        `terminal` (stable) or `initial` (unstable) symbol, and the bound is
        `agreement_bound`'s.  Computed on first use and kept on the element;
        it is no field, so equality, hash and repr ignore it."""
        return tuple((c, b, b.window, b.is_diagonal, b._edge(b.source), agreement_bound(b))
                     for c, b in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.side != other.side:
            raise SideMismatch("cannot add elements of different sides")
        return element(self.side, self.terms + other.terms)

    def __neg__(self) -> "AlgebraElement":
        return element(self.side, tuple((-c, b) for c, b in self.terms))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "AlgebraElement":
        return element(self.side, tuple((scalar * c, b) for c, b in self.terms))


def _bisection_class(side: str) -> type:
    if side not in BISECTIONS:
        raise ValueError(f"unknown side {side!r}")
    return BISECTIONS[side]


def element(side: str, terms) -> AlgebraElement:
    """Build a reduced element from (coefficient, bisection) pairs: equal
    bisections merge, and a term is dropped only when its coefficient is
    exactly zero."""
    want = _bisection_class(side)
    merged: dict = {}
    for c, b in terms:
        if not isinstance(b, want):
            raise SideMismatch(f"{type(b).__name__} in a {side} element")
        merged[b] = merged.get(b, 0j) + complex(c)
    kept = [(c, b) for b, c in merged.items() if c != 0]
    kept.sort(key=lambda cb: cb[1].sort_key())
    return AlgebraElement(side, tuple(kept))


def diagonal(side: str, ray) -> AlgebraElement:
    """Indicator of a single past (stable) or future (unstable) cylinder."""
    return element(side, (((1 + 0j), _bisection_class(side)(ray, ray)),))


def refine(sft: Sft, e: Bisection, window: int) -> list:
    """Partition a bisection into pieces constrained out to a finer window.

    Stable side: extend both rays by every admissible word on [N, window);
    unstable side mirrored, prepending words on [window, M).  The union of
    the pieces' graphs is the original graph.
    """
    if isinstance(e, StableBisection):
        if window < e.window:
            raise ValueError("stable refinement must not shrink the window")
        for exts in word_levels(sft, sft.successors(e.target.terminal), window - e.window):
            pass
        return [StableBisection(e.target.extend(w), e.source.extend(w)) for w in exts]
    if isinstance(e, UnstableBisection):
        if window > e.window:
            raise ValueError("unstable refinement must not shrink the window")
        mirror = refine(sft.transpose, _reflect(e, "stable"), -window)
        return [_reflect(x, "unstable") for x in mirror]
    raise TypeError(f"not a bisection: {e!r}")


def agreement_bound(e: Bisection):
    """Where a term's target and source stop agreeing: for a stable term the
    lowest coordinate where they differ, so they agree below any m up to it;
    for an unstable term the highest, so they agree from any m above it.
    A diagonal term's rays never differ: +inf (stable), -inf (unstable).
    Rays whose periodic tails differ differ everywhere far out: -inf
    (stable), +inf (unstable).  The unstable bound is read off the
    time-reversed rays, x_m -> x_{-1-m}, as a stable one.
    """
    if isinstance(e, StableBisection):
        return lowest_difference(e.target, e.source)
    return -1 - lowest_difference(reflect(e.target), reflect(e.source))


def _reflect(e: Bisection, side: str) -> Bisection:
    """The time-reversed bisection, on the other side, named by `side`."""
    return BISECTIONS[side](reflect(e.target), reflect(e.source))


def _reflect_element(a: AlgebraElement) -> AlgebraElement:
    """The time-reversed element, on the other side."""
    side = "stable" if a.side == "unstable" else "unstable"
    return element(side, [(c, _reflect(e, side)) for c, e in a.terms])


def _compose(e: StableBisection, f: StableBisection):
    """Graph composition e o f (f acts first); None when the graphs miss."""
    ne, nf = e.window, f.window
    if ne >= nf:
        if e.source.truncate(nf) != f.target:
            return None
        ext = tuple(e.source.symbol_at(m) for m in range(nf, ne))
        return StableBisection(e.target, f.source.extend(ext))
    if e.source != f.target.truncate(ne):
        return None
    ext = tuple(f.target.symbol_at(m) for m in range(ne, nf))
    return StableBisection(e.target.extend(ext), f.source)


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Groupoid convolution (operator product a o b; b acts first)."""
    if a.side != b.side:
        raise SideMismatch("convolution needs elements of the same side")
    if a.side == "unstable":
        return _reflect_element(convolve(_reflect_element(a), _reflect_element(b)))
    out = []
    for ca, ea in a.terms:
        for cb, eb in b.terms:
            comp = _compose(ea, eb)
            if comp is not None:
                out.append((ca * cb, comp))
    return element(a.side, out)


def involute(a: AlgebraElement) -> AlgebraElement:
    """The *-operation: conjugate coefficients, swap target and source."""
    return element(a.side, tuple((c.conjugate(), b.adjoint()) for c, b in a.terms))


def apply_alpha(a: AlgebraElement, n: int) -> AlgebraElement:
    """The shift automorphism to the n-th power: windows move by -n."""
    if n == 0:
        return a
    return element(a.side, tuple((c, b.shift(n)) for c, b in a.terms))


def tau(a: AlgebraElement, p: PerronData) -> complex:
    """Trace: integrate the diagonal against the leaf measure of the side.

    Off-diagonal bisections vanish on the diagonal and contribute nothing;
    a diagonal stable term contributes its past-cylinder's unstable-leaf
    mass, an unstable one its future-cylinder's stable-leaf mass.  A total
    beyond the float range raises NonFiniteCoefficient.
    """
    measure = mu_u_data if a.side == "stable" else mu_s_data
    total = 0j
    for c, b in a.terms:
        if b.is_diagonal:
            total += c * measure(p, b._edge(b.source), b.window)
    return require_finite(total, f"tau_{a.side[0]}")


def tau_s(a: AlgebraElement, p: PerronData) -> complex:
    if a.side != "stable":
        raise SideMismatch("tau_s expects a stable element")
    return tau(a, p)


def tau_u(b: AlgebraElement, p: PerronData) -> complex:
    if b.side != "unstable":
        raise SideMismatch("tau_u expects an unstable element")
    return tau(b, p)


def trace_property_check(a: AlgebraElement, b: AlgebraElement, p: PerronData,
                         tol: float = 1e-10) -> bool:
    """|tau(ab) - tau(ba)| <= tol for same-side elements."""
    return abs(tau(convolve(a, b), p) - tau(convolve(b, a), p)) <= tol
