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

Composition and refinement are written for the stable side only.  The
unstable side goes through time reversal x_m -> x_{-1-m} (`points.reflect`):
an unstable bisection at window M over A is the stable bisection at
window -M over the transpose whose rays are the reflected rays, with
phase (p - 1 - phase - t) % p over the reversed orbit (t its rotation).
Reflection preserves composition and refinement, so the unstable result
is the reflected stable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .perron import PerronData, mu_s_data, mu_u_data
from .points import LeftRay, RightRay, reflect
from .sft import Sft, word_levels

COEFF_EPS = 1e-15  # coefficients below this magnitude are dropped on reduction


class SideMismatch(ValueError):
    pass


class BisectionError(ValueError):
    pass


@dataclass(frozen=True)
class StableBisection:
    """Past replacement: send source-cylinder points to target-past points."""

    target: LeftRay
    source: LeftRay

    def __post_init__(self):
        if self.target.end != self.source.end:
            raise BisectionError("target and source rays must share their window")
        if self.target.terminal != self.source.terminal:
            raise BisectionError("target and source must share the terminal symbol")

    @property
    def window(self) -> int:
        return self.target.end

    @property
    def is_diagonal(self) -> bool:
        return self.target == self.source

    def shift(self, n: int) -> "StableBisection":
        return StableBisection(self.target.shift(n), self.source.shift(n))

    def adjoint(self) -> "StableBisection":
        return StableBisection(self.source, self.target)

    def sort_key(self):
        return (self.window, _lkey(self.target), _lkey(self.source))


@dataclass(frozen=True)
class UnstableBisection:
    """Future replacement on the cylinder of points matching the source from
    the window on."""

    target: RightRay
    source: RightRay

    def __post_init__(self):
        if self.target.start != self.source.start:
            raise BisectionError("target and source rays must share their window")
        if self.target.initial != self.source.initial:
            raise BisectionError("target and source must share the initial symbol")

    @property
    def window(self) -> int:
        return self.target.start

    @property
    def is_diagonal(self) -> bool:
        return self.target == self.source

    def shift(self, n: int) -> "UnstableBisection":
        return UnstableBisection(self.target.shift(n), self.source.shift(n))

    def adjoint(self) -> "UnstableBisection":
        return UnstableBisection(self.source, self.target)

    def sort_key(self):
        return (self.window, _rkey(self.target), _rkey(self.source))


Bisection = Union[StableBisection, UnstableBisection]


def _lkey(r: LeftRay):
    return (r.end, r.splice, r.body, r.orbit.word, r.phase)


def _rkey(r: RightRay):
    return (r.start, r.splice, r.body, r.orbit.word, r.phase)


@dataclass(frozen=True)
class AlgebraElement:
    """Reduced finite combination of same-side bisections.

    Terms are merged by bisection, near-zero coefficients dropped, and the
    term order is fixed (by `sort_key`, window first), so equal reduced
    elements compare equal.  The zero element has no terms.
    """

    side: str
    terms: tuple[tuple[complex, Bisection], ...]

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


def element(side: str, terms) -> AlgebraElement:
    """Build a reduced element from (coefficient, bisection) pairs."""
    if side not in ("stable", "unstable"):
        raise ValueError(f"unknown side {side!r}")
    want = StableBisection if side == "stable" else UnstableBisection
    merged: dict = {}
    for c, b in terms:
        if not isinstance(b, want):
            raise SideMismatch(f"{type(b).__name__} in a {side} element")
        merged[b] = merged.get(b, 0j) + complex(c)
    kept = [(c, b) for b, c in merged.items() if abs(c) >= COEFF_EPS]
    kept.sort(key=lambda cb: cb[1].sort_key())
    return AlgebraElement(side, tuple(kept))


def zero(side: str) -> AlgebraElement:
    return element(side, ())


def diagonal(side: str, ray) -> AlgebraElement:
    """Indicator of a single past (stable) or future (unstable) cylinder."""
    if side == "stable":
        return element(side, (((1 + 0j), StableBisection(ray, ray)),))
    return element(side, (((1 + 0j), UnstableBisection(ray, ray)),))


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
        return [_reflect(x) for x in refine(sft.transpose, _reflect(e), -window)]
    raise TypeError(f"not a bisection: {e!r}")


def _reflect(e: Bisection) -> Bisection:
    """The time-reversed bisection, on the other side."""
    cls = StableBisection if isinstance(e, UnstableBisection) else UnstableBisection
    return cls(reflect(e.target), reflect(e.source))


def _reflect_element(a: AlgebraElement) -> AlgebraElement:
    """The time-reversed element, on the other side."""
    side = "stable" if a.side == "unstable" else "unstable"
    return element(side, [(c, _reflect(e)) for c, e in a.terms])


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
    mass, an unstable one its future-cylinder's stable-leaf mass.
    """
    total = 0j
    for c, b in a.terms:
        if not b.is_diagonal:
            continue
        if isinstance(b, StableBisection):
            total += c * mu_u_data(p, b.source.terminal, b.window)
        else:
            total += c * mu_s_data(p, b.source.initial, b.window)
    return total


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
