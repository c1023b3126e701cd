"""Periodic orbits, eventually-periodic rays, and heteroclinic points.

A left ray describes all coordinates below an end index: periodic with a
given primitive cyclic word up to a splice, then an explicit body word.
A right ray is the mirror image.  A heteroclinic point glues a left ray
over an orbit of Q, an explicit middle word, and a right ray over an
orbit of P; such points are exactly the sequences that are backward
asymptotic to Q and forward asymptotic to P.

Every object is kept in a canonical form so that equality of the
underlying sequences is plain tuple equality:

  * an orbit holds the minimal rotation of its word;
  * rays absorb any body prefix/suffix that merely continues the
    periodic pattern (maximal splice for left rays, minimal for right);
  * points absorb redundant middle symbols into the periodic sides, and
    an empty middle's junction is slid right as far as it goes; a fully
    periodic point is anchored at junction 0.

`Orbit`, `LeftRay`, `RightRay` and `HeteroclinicPoint` take any form, with
any sequence for a word, body or middle, and store the canonical one with
tuples, so no value holds another; `make_left_ray` and `make_right_ray`
only check a ray against its system.

Phases are anchored at the splice: a left ray's symbol at splice-1 is
orbit.word[phase]; a right ray's symbol at its splice is orbit.word[phase].

Right rays are extended and truncated through time reversal, x_m -> x_{-1-m},
which maps the shift of A onto the shift of its transpose and a future
onto a past (`reflect`).  An orbit of period p reverses to the minimal
rotation of its reversed word, reached by rotating t places
(`Orbit.reversal`), and

  RightRay(orbit, phase, start, body, splice)
    <-> LeftRay(reversed orbit, (p - 1 - phase - t) % p, -splice,
                reversed body, -start)

over the transpose; the map is its own inverse and keeps canonical forms
canonical.  Building, checking, reading symbols, shifting, and everything
on points works on right rays directly, so the brute-force oracle, which
reads its rays through `symbol_at` and `shift`, never goes through it.
For that reason the ray classes with their constructors, `symbol_at` and
`shift` stay written out for each side, while `algebra` shares one
bisection body between the sides.
`matches_past`/`matches_future` stay written out for each side too:
`operators.product_operator` applies its terms through them, and the
benchmark's tracer wraps both by name.

`lowest_difference` and `rays_agree` compare two rays by their bodies
and periodic tails, at a cost that does not grow with the stretch
compared; the symbolic trace decides its overlap pairs with them.
"""

from __future__ import annotations

import math
from functools import cached_property

from .sft import Sft, bridge_table, count_paths, is_admissible
from .values import Value

# most middle symbols `enumerate_heteroclinic` holds: sequences x (2 * window + 1);
# also the most bridge symbols `operators.product_operator` enumerates: columns x steps
ENUMERATION_CAP = 2 ** 22


class WindowOverflow(RuntimeError):
    """Support window exceeds the configured cap; input too large for desk scale."""


class InadmissibleRay(ValueError):
    pass


class InadmissibleOrbit(ValueError):
    pass


class IncompatibleAtZero(ValueError):
    """Bracket of two points whose symbols at index 0 differ."""


def cycle(word, phase, length):
    """`length` symbols of the periodic word, starting at word[phase] (mod
    its length)."""
    phase %= len(word)
    return (word * ((phase + length) // len(word) + 1))[phase:phase + length]


def _least_rotation(word) -> int:
    """The first i at which word[i:] + word[:i] is the least rotation of the
    nonempty word, in one linear scan: two candidate starts i < j and the
    length k of their common prefix.  Where they first differ, the one with
    the greater symbol is out, and so are the k starts after it: the
    rotation m <= k places after it is greater than the one m places after
    the other.  When k reaches the length, the word is a proper power."""
    n = len(word)
    twice = word + word
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = twice[i + k], twice[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j, i + k) + 1, 0
        else:
            j, k = j + k + 1, 0
    return i


class Orbit(Value):
    """A primitive cyclic word, given in any rotation and stored as its
    minimal one; admissibility in a system is checked by `validate`."""

    _fields = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if not word:
            raise InadmissibleOrbit("empty cyclic word")
        i = _least_rotation(word)
        least = word[i:] + word[:i]
        # a word is primitive exactly when no rotation by a proper divisor
        # of its length equals it
        p = len(word)
        for d in range(1, p // 2 + 1):
            if p % d == 0 and word[d:] == word[:p - d]:
                raise InadmissibleOrbit(f"{least} is not primitive")
        self.__dict__.update(word=least)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash((self.word,))

    @property
    def period(self) -> int:
        return len(self.word)

    @cached_property
    def reversal(self) -> tuple["Orbit", int]:
        """The time-reversed orbit and the rotation t that reaches it:
        reversed.word[i] == word[(p - 1 - i - t) % p]."""
        rev = self.word[::-1]
        t = _least_rotation(rev)
        return Orbit(rev[t:] + rev[:t]), t

    def validate(self, sft: Sft) -> None:
        # the orbit keeps the matrix it last passed in (no field), so the rays
        # over a validated orbit set check it no more; not the system, which
        # it would keep alive with its path-count memo
        if self.__dict__.get("valid_in") is not sft.trans:
            if not is_admissible(sft, self.word + (self.word[0],)):
                raise InadmissibleOrbit(f"cyclic word {self.word} not admissible")
            self.__dict__["valid_in"] = sft.trans


def make_orbit(word, sft: Sft | None = None) -> Orbit:
    orb = Orbit(word)
    if sft is not None:
        orb.validate(sft)
    return orb


class PeriodicOrbitSet(Value):
    """A finite shift-invariant set given as a list of disjoint orbits."""

    _fields = ("orbits",)

    def __init__(self, orbits):
        orbits = tuple(orbits)
        if len(set(orbits)) != len(orbits):
            raise InadmissibleOrbit("orbit set contains duplicates")
        self.__dict__.update(orbits=orbits)

    def isdisjoint(self, other: "PeriodicOrbitSet") -> bool:
        return not set(self.orbits) & set(other.orbits)


def make_orbit_set(words, sft: Sft | None = None) -> PeriodicOrbitSet:
    return PeriodicOrbitSet(make_orbit(w, sft) for w in words)


class LeftRay(Value):
    """Coordinates below `end`: orbit-periodic up to `splice`, then `body`.

    The constructor stores the canonical form: body symbols at the front
    that continue the periodic pattern move into it, so the splice is as
    high as it goes.  It does not check the body against a system.
    """

    _fields = ("orbit", "phase", "splice", "body", "end")

    def __init__(self, orbit: Orbit, phase: int, splice: int, body, end: int):
        body = tuple(body)
        if splice + len(body) != end:
            raise InadmissibleRay("body length does not match [splice, end)")
        p = orbit.period
        if not 0 <= phase < p:
            raise InadmissibleRay("phase out of range")
        while body and body[0] == orbit.word[(phase + 1) % p]:
            phase = (phase + 1) % p
            splice += 1
            body = body[1:]
        self.__dict__.update(orbit=orbit, phase=phase, splice=splice, body=body, end=end)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.orbit, self.phase, self.splice, self.body, self.end)
                    == (other.orbit, other.phase, other.splice, other.body, other.end))
        return NotImplemented

    def __hash__(self):
        return hash((self.orbit, self.phase, self.splice, self.body, self.end))

    def symbol_at(self, m: int) -> int:
        if m >= self.end:
            raise IndexError(f"left ray undefined at {m} >= {self.end}")
        if m >= self.splice:
            return self.body[m - self.splice]
        p = self.orbit.period
        return self.orbit.word[(self.phase + (m - self.splice + 1)) % p]

    @property
    def terminal(self) -> int:
        """Symbol at end - 1."""
        return self.symbol_at(self.end - 1)

    def shift(self, n: int) -> "LeftRay":
        return LeftRay(self.orbit, self.phase, self.splice - n, self.body, self.end - n)

    def extend(self, symbols) -> "LeftRay":
        """Append symbols on [end, end + len)."""
        return LeftRay(self.orbit, self.phase, self.splice,
                       self.body + tuple(symbols), self.end + len(symbols))

    def truncate(self, c: int) -> "LeftRay":
        """Restriction to coordinates < c (c <= end)."""
        if c > self.end:
            raise IndexError("cannot truncate beyond defined coordinates")
        if c >= self.splice:
            return LeftRay(self.orbit, self.phase, self.splice, self.body[: c - self.splice], c)
        p = self.orbit.period
        phase = (self.phase + (c - self.splice)) % p
        return LeftRay(self.orbit, phase, c, (), c)


class RightRay(Value):
    """Coordinates at and above `start`: `body` on [start, splice), then periodic.

    The constructor stores the canonical form: body symbols at the back
    that continue the periodic pattern move into it, so the splice is as
    low as it goes.  It does not check the body against a system.
    """

    _fields = ("orbit", "phase", "start", "body", "splice")

    def __init__(self, orbit: Orbit, phase: int, start: int, body, splice: int):
        body = tuple(body)
        if start + len(body) != splice:
            raise InadmissibleRay("body length does not match [start, splice)")
        p = orbit.period
        if not 0 <= phase < p:
            raise InadmissibleRay("phase out of range")
        while body and body[-1] == orbit.word[(phase - 1) % p]:
            phase = (phase - 1) % p
            splice -= 1
            body = body[:-1]
        self.__dict__.update(orbit=orbit, phase=phase, start=start, body=body, splice=splice)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.orbit, self.phase, self.start, self.body, self.splice)
                    == (other.orbit, other.phase, other.start, other.body, other.splice))
        return NotImplemented

    def __hash__(self):
        return hash((self.orbit, self.phase, self.start, self.body, self.splice))

    def symbol_at(self, m: int) -> int:
        if m < self.start:
            raise IndexError(f"right ray undefined at {m} < {self.start}")
        if m < self.splice:
            return self.body[m - self.start]
        p = self.orbit.period
        return self.orbit.word[(self.phase + (m - self.splice)) % p]

    @property
    def initial(self) -> int:
        """Symbol at start."""
        return self.symbol_at(self.start)

    def shift(self, n: int) -> "RightRay":
        return RightRay(self.orbit, self.phase, self.start - n, self.body, self.splice - n)

    def extend(self, symbols) -> "RightRay":
        """Prepend symbols on [start - len, start)."""
        return reflect(reflect(self).extend(tuple(symbols)[::-1]))

    def truncate(self, c: int) -> "RightRay":
        """Restriction to coordinates >= c (c >= start)."""
        return reflect(reflect(self).truncate(-c))


def reflect(ray):
    """Time reversal x_m -> x_{-1-m}: a right ray as the left ray over the
    transposed system, and back."""
    orbit, t = ray.orbit.reversal
    p = orbit.period
    phase = (p - 1 - ray.phase - t) % p
    if isinstance(ray, RightRay):
        return LeftRay(orbit, phase, -ray.splice, ray.body[::-1], -ray.start)
    return RightRay(orbit, phase, -ray.end, ray.body[::-1], -ray.splice)


def lowest_difference(x: LeftRay, y: LeftRay):
    """The lowest coordinate where two left rays with one end differ: -inf
    when their periodic tails differ (then they differ below every
    coordinate), +inf when they are the same ray.

    Below the lower splice both rays are periodic, so one orbit and phase
    comparison there decides the tails, and only the bodies are read
    symbol by symbol.
    """
    lo = min(x.splice, y.splice)
    p = x.orbit.period
    if x.orbit != y.orbit or (x.phase + lo - x.splice) % p != (y.phase + lo - y.splice) % p:
        return -math.inf
    for m in range(lo, x.end):
        if x.symbol_at(m) != y.symbol_at(m):
            return m
    return math.inf


def rays_agree(past: LeftRay, future: RightRay, shift: int) -> bool:
    """True iff past.shift(shift) and `future` agree wherever both are
    defined, on [future.start, past.end - shift), at a cost that does not
    grow with that stretch.

    Each coordinate there lies in a body of the two rays or where both are
    periodic.  Two periodic tails over one orbit in phase agree throughout,
    so only the bodies are compared; two other tails disagree within the
    sum of their periods (Fine and Wilf), so a longer common stretch
    decides False at once, and a shorter one is compared with the bodies.
    """
    lo, hi = future.start, past.end - shift
    tails_lo, tails_hi = max(lo, future.splice), min(hi, past.splice - shift)
    compared = range(lo, hi)
    if tails_lo < tails_hi:
        p = future.orbit.period
        if past.orbit == future.orbit and (
                past.phase + shift - past.splice + 1) % p == (future.phase - future.splice) % p:
            compared = (*range(lo, tails_lo), *range(tails_hi, hi))
        elif tails_hi - tails_lo >= p + past.orbit.period:
            return False
    return all(past.symbol_at(x + shift) == future.symbol_at(x) for x in compared)


def make_left_ray(sft: Sft, orbit: Orbit, phase: int, splice: int, body, end: int) -> LeftRay:
    """The left ray, checked in `sft`: its orbit, and its body after the
    orbit symbol next to it."""
    ray = LeftRay(orbit, phase, splice, body, end)
    orbit.validate(sft)
    if ray.body and not is_admissible(sft, (orbit.word[ray.phase],) + ray.body):
        raise InadmissibleRay("ray body breaks admissibility")
    return ray


def make_right_ray(sft: Sft, orbit: Orbit, phase: int, start: int, body, splice: int) -> RightRay:
    """The right ray, checked in `sft`: its orbit, and its body before the
    orbit symbol next to it."""
    ray = RightRay(orbit, phase, start, body, splice)
    orbit.validate(sft)
    if ray.body and not is_admissible(sft, ray.body + (orbit.word[ray.phase],)):
        raise InadmissibleRay("ray body breaks admissibility")
    return ray


def periodic_left_ray(sft: Sft, orbit: Orbit, end: int, phase_at_end: int = 0) -> LeftRay:
    """Pure periodic past below `end`; phase taken so symbol at end-1 is word[phase]."""
    return make_left_ray(sft, orbit, phase_at_end, end, (), end)


def periodic_right_ray(sft: Sft, orbit: Orbit, start: int, phase_at_start: int = 0) -> RightRay:
    """Pure periodic future from `start`; symbol at start is word[phase]."""
    return make_right_ray(sft, orbit, phase_at_start, start, (), start)


class HeteroclinicPoint(Value):
    """A bi-infinite sequence, backward asymptotic to `left_orbit`, forward to
    `right_orbit`, in canonical form.

    Coordinates < n_left follow the left orbit (symbol at n_left-1 is
    word[left_phase]);  [n_left, m_right) is the explicit middle;
    coordinates >= m_right follow the right orbit (symbol at m_right is
    word[right_phase]).  The constructor takes arbitrary gluing data of
    that form, each phase in [0, period) (ValueError otherwise), and stores
    its canonical form; it does not check the transitions against a system.

    Points are dict keys throughout the representation, so each one hashes
    its field tuple once, when first hashed.
    """

    _fields = ("left_orbit", "left_phase", "n_left", "middle", "right_orbit", "right_phase",
               "m_right")

    def __init__(self, left_orbit: Orbit, left_phase: int, n_left: int, middle,
                 right_orbit: Orbit, right_phase: int, m_right: int):
        middle = tuple(middle)
        if n_left + len(middle) != m_right:
            raise ValueError("middle length does not match window")
        pl, pr = left_orbit.period, right_orbit.period
        if not (0 <= left_phase < pl and 0 <= right_phase < pr):
            raise ValueError("phase out of range")
        # absorb middle into the periodic sides
        while middle and middle[0] == left_orbit.word[(left_phase + 1) % pl]:
            left_phase = (left_phase + 1) % pl
            n_left += 1
            middle = middle[1:]
        while middle and middle[-1] == right_orbit.word[(right_phase - 1) % pr]:
            right_phase = (right_phase - 1) % pr
            m_right -= 1
            middle = middle[:-1]
        if not middle:
            if left_orbit == right_orbit and (left_phase + 1) % pl == right_phase:
                # fully periodic: anchor the junction at 0
                right_phase = (right_phase - n_left) % pr
                left_phase = (right_phase - 1) % pr
                n_left = m_right = 0
            else:
                # slide the junction right as far as it goes; distinct primitive
                # patterns must disagree within pl + pr steps
                for _ in range(pl + pr + 1):
                    if right_orbit.word[right_phase] != left_orbit.word[(left_phase + 1) % pl]:
                        break
                    left_phase = (left_phase + 1) % pl
                    right_phase = (right_phase + 1) % pr
                    n_left += 1
                    m_right += 1
                else:
                    raise AssertionError("junction slide did not terminate")
        self.__dict__.update(left_orbit=left_orbit, left_phase=left_phase, n_left=n_left,
                             middle=middle, right_orbit=right_orbit, right_phase=right_phase,
                             m_right=m_right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.left_orbit, self.left_phase, self.n_left, self.middle,
                     self.right_orbit, self.right_phase, self.m_right)
                    == (other.left_orbit, other.left_phase, other.n_left, other.middle,
                        other.right_orbit, other.right_phase, other.m_right))
        return NotImplemented

    _hash = None  # not a field: set by the first __hash__

    def __hash__(self):
        if self._hash is None:
            self.__dict__["_hash"] = hash((
                self.left_orbit, self.left_phase, self.n_left, self.middle,
                self.right_orbit, self.right_phase, self.m_right))
        return self._hash

    @property
    def window(self) -> tuple[int, int]:
        return (self.n_left, self.m_right)

    def symbol_at(self, m: int) -> int:
        if m < self.n_left:
            p = self.left_orbit.period
            return self.left_orbit.word[(self.left_phase + (m - self.n_left + 1)) % p]
        if m < self.m_right:
            return self.middle[m - self.n_left]
        p = self.right_orbit.period
        return self.right_orbit.word[(self.right_phase + (m - self.m_right)) % p]

    def segment(self, lo: int, hi: int) -> tuple[int, ...]:
        """Symbols on [lo, hi), empty when hi <= lo."""
        if hi <= lo:
            return ()
        n, m = self.n_left, self.m_right
        out = self.middle[max(lo - n, 0):max(min(hi, m) - n, 0)]
        if lo < n:
            end = min(hi, n)
            out = cycle(self.left_orbit.word, self.left_phase + lo - n + 1, end - lo) + out
        if m < hi:
            start = max(lo, m)
            out += cycle(self.right_orbit.word, self.right_phase + start - m, hi - start)
        return out

    def render(self, sft: Sft) -> str:
        lab = sft.label
        lw = "".join(lab(s) for s in self.left_orbit.word)
        rw = "".join(lab(s) for s in self.right_orbit.word)
        mid = "".join(lab(s) for s in self.middle)
        return f"({lw})^inf [{self.n_left}|{mid}|{self.m_right}) ({rw})^inf"


def splice_point(past: LeftRay, middle, future: RightRay) -> HeteroclinicPoint:
    """Point whose coordinates < past.end come from `past`, then `middle`,
    then `future` from future.start onward.  Requires contiguity."""
    middle = tuple(middle)
    if past.end + len(middle) != future.start:
        raise ValueError("rays and middle do not tile the line")
    return HeteroclinicPoint(past.orbit, past.phase, past.splice,
                             past.body + middle + future.body,
                             future.orbit, future.phase, future.splice)


def shift_point(z: HeteroclinicPoint, n: int) -> HeteroclinicPoint:
    """Canonical form of the n-th shift image: (shift^n z)_m = z_{m+n}."""
    return HeteroclinicPoint(z.left_orbit, z.left_phase, z.n_left - n, z.middle,
                             z.right_orbit, z.right_phase, z.m_right - n)


def bracket(x: HeteroclinicPoint, y: HeteroclinicPoint) -> HeteroclinicPoint:
    """The point taking its past from y and its future from x.

    Defined when x_0 = y_0; satisfies bracket(x, x) = x.
    """
    if x.symbol_at(0) != y.symbol_at(0):
        raise IncompatibleAtZero(
            f"symbols at index 0 differ: {x.symbol_at(0)} vs {y.symbol_at(0)}"
        )
    lo = min(y.n_left, 0)
    hi = max(x.m_right, 0)
    return HeteroclinicPoint(y.left_orbit, (y.left_phase + lo - y.n_left) % y.left_orbit.period,
                             lo, y.segment(lo, 0) + x.segment(0, hi),
                             x.right_orbit, (x.right_phase + hi - x.m_right) % x.right_orbit.period,
                             hi)


def matches_past(z: HeteroclinicPoint, ray: LeftRay) -> bool:
    """True iff z's coordinates below the ray's end equal the ray's.

    Cheap: one orbit/phase alignment check plus an explicit scan of the
    finitely many coordinates where either side is non-periodic.
    """
    if z.left_orbit != ray.orbit:
        return False
    lo = min(z.n_left, ray.splice)
    p = ray.orbit.period
    if (z.left_phase + (lo - z.n_left)) % p != (ray.phase + (lo - ray.splice)) % p:
        return False
    return all(z.symbol_at(i) == ray.symbol_at(i) for i in range(lo, ray.end))


def matches_future(z: HeteroclinicPoint, ray: RightRay) -> bool:
    """True iff z's coordinates from the ray's start on equal the ray's."""
    if z.right_orbit != ray.orbit:
        return False
    hi = max(z.m_right, ray.splice)
    p = ray.orbit.period
    if (z.right_phase + (hi - z.m_right)) % p != (ray.phase + (hi - ray.splice)) % p:
        return False
    return all(z.symbol_at(i) == ray.symbol_at(i) for i in range(ray.start, hi))


def point_key(z: HeteroclinicPoint):
    """Total sort key: the window first, then the middle, orbits and phases."""
    return (z.n_left, z.m_right, z.middle, z.left_orbit.word, z.left_phase,
            z.right_orbit.word, z.right_phase)


def asymptotic_sequences(sft: Sft, p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                         length: int):
    """Every sequence from an orbit of Q to an orbit of P that is periodic
    outside a run of `length` symbols, once each, grouped by its tails: one
    group (left orbit, phase of the symbol before the run, right orbit,
    phase of the symbol after it, middles) per pair of tails, whose middles
    are the runs of its sequences, every admissible word of `length`
    symbols that joins the left symbol to the right one, in lexicographic
    order.  Orbits are primitive, so the phases fix the periodic tails,
    wherever the run sits.

    The middles depend only on the two joined symbols, so one
    `bridge_table` per call builds each left symbol's heads and each right
    symbol's tails once and joins them once per (left, right) pair, whose
    groups share that tuple.
    """
    for orbit in (*q_set.orbits, *p_set.orbits):
        orbit.validate(sft)
    rights = [(orbit, phase, orbit.word[phase])
              for orbit in p_set.orbits for phase in range(orbit.period)]
    joins = bridge_table(sft, {s for o in q_set.orbits for s in o.word},
                         {s for *_, s in rights}, length)
    for left_orbit in q_set.orbits:
        for left_phase, left in enumerate(left_orbit.word):
            for right_orbit, right_phase, right in rights:
                yield left_orbit, left_phase, right_orbit, right_phase, joins[left, right]


def count_asymptotic_sequences(sft: Sft, p_set: PeriodicOrbitSet,
                               q_set: PeriodicOrbitSet, length: int) -> int:
    """How many sequences `asymptotic_sequences` yields for runs of this
    length: the paths of length + 1 steps from each left symbol before the
    run to each right symbol after it."""
    return sum(count_paths(sft, left, right, length + 1)
               for q in q_set.orbits for left in q.word
               for p in p_set.orbits for right in p.word)


def enumerate_heteroclinic(sft: Sft, p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                           window: int) -> list[HeteroclinicPoint]:
    """All heteroclinic points whose canonical window lies within
    [-window, window], in a fixed lexicographic order: the
    `asymptotic_sequences` of the run [-window, window), canonicalized by the
    `HeteroclinicPoint` constructor (which never moves n_left below
    -window), whose m_right fits.

    Raises WindowOverflow, before building any point, when the sequences
    times 2 * window + 1 exceed ENUMERATION_CAP, which bounds the symbols
    held rather than the sequences alone.  A sequence periodic outside
    [-w, w) is periodic outside [-w-1, w+1), so that product never shrinks
    as the window grows, and the windows are counted upwards until one
    exceeds the cap: a huge window costs no huge path counts.
    """
    for w in range(window + 1):
        count = count_asymptotic_sequences(sft, p_set, q_set, 2 * w)
        if count * (2 * w + 1) > ENUMERATION_CAP:
            raise WindowOverflow(f"window {window} needs more than {ENUMERATION_CAP} "
                                 f"symbols ({count} sequences x {2 * w + 1} at window {w})")
    points = (HeteroclinicPoint(left, lph, -window, middle, right, rph, window)
              for left, lph, right, rph, middles
              in asymptotic_sequences(sft, p_set, q_set, 2 * window)
              for middle in middles)
    return sorted((z for z in points if z.m_right <= window), key=point_key)
