"""Periodic orbits, eventually-periodic rays, and heteroclinic points.

A left ray describes all coordinates below an end index: periodic with a
given primitive cyclic word up to a splice, then an explicit body word.
A right ray is the mirror image.  A heteroclinic point glues a left ray
over an orbit of Q, an explicit middle word, and a right ray over an
orbit of P; such points are exactly the sequences that are backward
asymptotic to Q and forward asymptotic to P.

Every object is kept in a canonical form so that equality of the
underlying sequences is plain tuple equality:

  * rays absorb any body prefix/suffix that merely continues the
    periodic pattern (maximal splice for left rays, minimal for right);
  * points absorb redundant middle symbols into the periodic sides, and
    an empty middle's junction is slid right as far as it goes; a fully
    periodic point is anchored at junction 0.

Phases are anchored at the splice: a left ray's symbol at splice-1 is
orbit.word[phase]; a right ray's symbol at its splice is orbit.word[phase].

Right rays are built and edited through time reversal, x_m -> x_{-1-m},
which maps the shift of A onto the shift of its transpose and a future
onto a past (`reflect`).  An orbit of period p reverses to the minimal
rotation of its reversed word, reached by rotating t places
(`Orbit.reversal`), and

  RightRay(orbit, phase, start, body, splice)
    <-> LeftRay(reversed orbit, (p - 1 - phase - t) % p, -splice,
                reversed body, -start)

over the transpose; the map is its own inverse and keeps canonical forms
canonical.  Reading symbols, shifting, and everything on points works on
right rays directly, so the brute-force oracle, which reads its rays
through `symbol_at`, never goes through it.  For that reason the ray
classes with their `symbol_at` and `shift` stay written out for each
side, while `algebra` shares one bisection body between the sides.
`matches_past`/`matches_future` stay written out for each side too:
`rep.product_operator` applies its terms through them, and the
benchmark's tracer wraps both by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .sft import Sft, bridge_words, count_paths, is_admissible

# most middle symbols `enumerate_heteroclinic` holds: sequences x (2 * window + 1);
# also the most bridge symbols `rep.product_operator` enumerates: columns x steps
ENUMERATION_CAP = 2 ** 22
# widest free bridge `rep.product_operator` enumerates columns over
PRODUCT_WINDOW_CAP = 16


class WindowOverflow(RuntimeError):
    """Support window exceeds the configured cap; input too large for desk scale."""


class InadmissibleRay(ValueError):
    pass


class InadmissibleOrbit(ValueError):
    pass


class IncompatibleAtZero(ValueError):
    """Bracket of two points whose symbols at index 0 differ."""


def _min_rotation(word):
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def _cycle(word, phase, length):
    """`length` symbols of the periodic word, starting at word[phase] (mod
    its length)."""
    phase %= len(word)
    return (word * ((phase + length) // len(word) + 1))[phase:phase + length]


@dataclass(frozen=True)
class Orbit:
    """A primitive admissible cyclic word, stored as its minimal rotation."""

    word: tuple[int, ...]

    def __post_init__(self):
        if not self.word:
            raise InadmissibleOrbit("empty cyclic word")
        if self.word != _min_rotation(self.word):
            raise InadmissibleOrbit(f"{self.word} is not the minimal rotation")
        p = len(self.word)
        for d in range(1, p):
            if p % d == 0 and self.word == self.word[d:] + self.word[:d]:
                raise InadmissibleOrbit(f"{self.word} is not primitive")

    @property
    def period(self) -> int:
        return len(self.word)

    @cached_property
    def reversal(self) -> tuple["Orbit", int]:
        """The time-reversed orbit and the rotation t that reaches it:
        reversed.word[i] == word[(p - 1 - i - t) % p]."""
        rev = self.word[::-1]
        t = min(range(len(rev)), key=lambda i: rev[i:] + rev[:i])
        orbit = Orbit(rev[t:] + rev[:t])
        # reversing twice returns this very object, so repeated reflections
        # of one ray reuse both cached reversals
        orbit.__dict__["reversal"] = (self, t)
        return orbit, t

    def validate(self, sft: Sft) -> None:
        if not is_admissible(sft, self.word + (self.word[0],)):
            raise InadmissibleOrbit(f"cyclic word {self.word} not admissible")


def make_orbit(word, sft: Sft | None = None) -> Orbit:
    orb = Orbit(_min_rotation(tuple(word)))
    if sft is not None:
        orb.validate(sft)
    return orb


@dataclass(frozen=True)
class PeriodicOrbitSet:
    """A finite shift-invariant set given as a list of disjoint orbits."""

    orbits: tuple[Orbit, ...]

    def __post_init__(self):
        if len(set(self.orbits)) != len(self.orbits):
            raise InadmissibleOrbit("orbit set contains duplicates")

    def __contains__(self, orbit: Orbit) -> bool:
        return orbit in self.orbits

    def isdisjoint(self, other: "PeriodicOrbitSet") -> bool:
        return not set(self.orbits) & set(other.orbits)


def make_orbit_set(words, sft: Sft | None = None) -> PeriodicOrbitSet:
    return PeriodicOrbitSet(tuple(make_orbit(w, sft) for w in words))


@dataclass(frozen=True)
class LeftRay:
    """Coordinates below `end`: orbit-periodic up to `splice`, then `body`."""

    orbit: Orbit
    phase: int
    splice: int
    body: tuple[int, ...]
    end: int

    def __post_init__(self):
        if self.splice + len(self.body) != self.end:
            raise InadmissibleRay("body length does not match [splice, end)")
        if not 0 <= self.phase < self.orbit.period:
            raise InadmissibleRay("phase out of range")

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
        return _canonical_left(self.orbit, self.phase, self.splice,
                               self.body + tuple(symbols), self.end + len(symbols))

    def truncate(self, c: int) -> "LeftRay":
        """Restriction to coordinates < c (c <= end)."""
        if c > self.end:
            raise IndexError("cannot truncate beyond defined coordinates")
        if c >= self.splice:
            return _canonical_left(self.orbit, self.phase, self.splice,
                                   self.body[: c - self.splice], c)
        p = self.orbit.period
        phase = (self.phase + (c - self.splice)) % p
        return LeftRay(self.orbit, phase, c, (), c)


@dataclass(frozen=True)
class RightRay:
    """Coordinates at and above `start`: `body` on [start, splice), then periodic."""

    orbit: Orbit
    phase: int
    start: int
    body: tuple[int, ...]
    splice: int

    def __post_init__(self):
        if self.start + len(self.body) != self.splice:
            raise InadmissibleRay("body length does not match [start, splice)")
        if not 0 <= self.phase < self.orbit.period:
            raise InadmissibleRay("phase out of range")

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


def _canonical_left(orbit, phase, splice, body, end):
    p = orbit.period
    body = tuple(body)
    while body and body[0] == orbit.word[(phase + 1) % p]:
        phase = (phase + 1) % p
        splice += 1
        body = body[1:]
    return LeftRay(orbit, phase, splice, body, end)


def make_left_ray(sft: Sft, orbit: Orbit, phase: int, splice: int, body, end: int) -> LeftRay:
    """Validated, canonical left ray."""
    body = tuple(body)
    LeftRay(orbit, phase, splice, body, end)  # raises on a bad length or phase
    orbit.validate(sft)
    if body and not is_admissible(sft, (orbit.word[phase],) + body):
        raise InadmissibleRay("ray body breaks admissibility")
    return _canonical_left(orbit, phase, splice, body, end)


def make_right_ray(sft: Sft, orbit: Orbit, phase: int, start: int, body, splice: int) -> RightRay:
    """Validated, canonical right ray: the reflected left ray over the transpose."""
    mirror = reflect(RightRay(orbit, phase, start, tuple(body), splice))
    return reflect(make_left_ray(sft.transpose, mirror.orbit, mirror.phase,
                                 mirror.splice, mirror.body, mirror.end))


def periodic_left_ray(sft: Sft, orbit: Orbit, end: int, phase_at_end: int = None) -> LeftRay:
    """Pure periodic past below `end`; phase taken so symbol at end-1 is word[phase]."""
    phase = 0 if phase_at_end is None else phase_at_end
    return make_left_ray(sft, orbit, phase, end, (), end)


def periodic_right_ray(sft: Sft, orbit: Orbit, start: int, phase_at_start: int = None) -> RightRay:
    """Pure periodic future from `start`; symbol at start is word[phase]."""
    phase = 0 if phase_at_start is None else phase_at_start
    return make_right_ray(sft, orbit, phase, start, (), start)


@dataclass(frozen=True)
class HeteroclinicPoint:
    """A bi-infinite sequence, backward asymptotic to `left_orbit`, forward to
    `right_orbit`, in canonical form.

    Coordinates < n_left follow the left orbit (symbol at n_left-1 is
    word[left_phase]);  [n_left, m_right) is the explicit middle;
    coordinates >= m_right follow the right orbit (symbol at m_right is
    word[right_phase]).

    Points are dict keys throughout the representation, so each one hashes
    its fields once, when first hashed, to the value the generated hash
    would give.
    """

    left_orbit: Orbit
    left_phase: int
    n_left: int
    middle: tuple[int, ...]
    right_orbit: Orbit
    right_phase: int
    m_right: int

    def __post_init__(self):
        if self.n_left + len(self.middle) != self.m_right:
            raise ValueError("middle length does not match window")

    _hash = None  # not a field: set by the first __hash__

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((
                self.left_orbit, self.left_phase, self.n_left, self.middle,
                self.right_orbit, self.right_phase, self.m_right)))
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
            out = _cycle(self.left_orbit.word, self.left_phase + lo - n + 1, end - lo) + out
        if m < hi:
            start = max(lo, m)
            out += _cycle(self.right_orbit.word, self.right_phase + start - m, hi - start)
        return out

    def render(self, sft: Sft | None = None) -> str:
        lab = (lambda s: sft.label(s)) if sft is not None else str
        lw = "".join(lab(s) for s in self.left_orbit.word)
        rw = "".join(lab(s) for s in self.right_orbit.word)
        mid = "".join(lab(s) for s in self.middle) or ""
        return f"({lw})^inf [{self.n_left}|{mid}|{self.m_right}) ({rw})^inf"


def make_point(left_orbit, left_phase, n_left, middle, right_orbit, right_phase,
               m_right) -> HeteroclinicPoint:
    """Canonicalize arbitrary gluing data into a HeteroclinicPoint."""
    middle = tuple(middle)
    if n_left + len(middle) != m_right:
        raise ValueError("middle length does not match window")
    pl, pr = left_orbit.period, right_orbit.period
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
        assert n_left == m_right
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
    return HeteroclinicPoint(left_orbit, left_phase, n_left, middle,
                             right_orbit, right_phase, m_right)


def splice_point(past: LeftRay, middle, future: RightRay) -> HeteroclinicPoint:
    """Point whose coordinates < past.end come from `past`, then `middle`,
    then `future` from future.start onward.  Requires contiguity."""
    middle = tuple(middle)
    if past.end + len(middle) != future.start:
        raise ValueError("rays and middle do not tile the line")
    return make_point(past.orbit, past.phase, past.splice,
                      past.body + middle + future.body,
                      future.orbit, future.phase, future.splice)


def shift_point(z: HeteroclinicPoint, n: int) -> HeteroclinicPoint:
    """Canonical form of the n-th shift image: (shift^n z)_m = z_{m+n}."""
    return make_point(z.left_orbit, z.left_phase, z.n_left - n, z.middle,
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
    return make_point(y.left_orbit, (y.left_phase + lo - y.n_left) % y.left_orbit.period,
                      lo, y.segment(lo, 0) + x.segment(0, hi),
                      x.right_orbit, (x.right_phase + hi - x.m_right) % x.right_orbit.period,
                      hi)


def matches_past(z: HeteroclinicPoint, ray: LeftRay, upto: int) -> bool:
    """True iff z's coordinates below `upto` equal the ray's (upto <= ray.end).

    Cheap: one orbit/phase alignment check plus an explicit scan of the
    finitely many coordinates where either side is non-periodic.
    """
    if z.left_orbit != ray.orbit:
        return False
    lo = min(z.n_left, ray.splice)
    p = ray.orbit.period
    if (z.left_phase + (lo - z.n_left)) % p != (ray.phase + (lo - ray.splice)) % p:
        return False
    return all(z.symbol_at(i) == ray.symbol_at(i) for i in range(lo, upto))


def matches_future(z: HeteroclinicPoint, ray: RightRay, start: int) -> bool:
    """True iff z's coordinates from `start` on equal the ray's (start >= ray.start)."""
    if z.right_orbit != ray.orbit:
        return False
    hi = max(z.m_right, ray.splice)
    p = ray.orbit.period
    if (z.right_phase + (hi - z.m_right)) % p != (ray.phase + (hi - ray.splice)) % p:
        return False
    return all(z.symbol_at(i) == ray.symbol_at(i) for i in range(start, hi))


def point_key(z: HeteroclinicPoint):
    """Total sort key: the window first, then the middle, orbits and phases."""
    return (z.n_left, z.m_right, z.middle, z.left_orbit.word, z.left_phase,
            z.right_orbit.word, z.right_phase)


def asymptotic_sequences(sft: Sft, p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                         window: int):
    """Every sequence from an orbit of Q to an orbit of P that is periodic
    outside [-window, window), once each, grouped by its tails: one group
    (left orbit, phase at -window-1, right orbit, phase at window, middles)
    per pair of tails, whose middles are the symbols on [-window, window)
    of its sequences, every admissible word of length 2 * window that joins
    the left symbol to the right one, in lexicographic order.  Orbits are
    primitive, so the phases fix the periodic tails.

    The middles depend only on the two joined symbols, so each (left
    symbol, right symbol) pair takes its words from `bridge_words` once
    per call, and groups with the same symbols share that tuple.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    for orbit in (*q_set.orbits, *p_set.orbits):
        orbit.validate(sft)
    rights = [(orbit, phase, orbit.word[phase])
              for orbit in p_set.orbits for phase in range(orbit.period)]
    joins: dict = {}  # (left symbol, right symbol) -> middles joining them
    for left_orbit in q_set.orbits:
        for left_phase, left in enumerate(left_orbit.word):
            for right_orbit, right_phase, right in rights:
                if (left, right) not in joins:
                    joins[left, right] = bridge_words(sft, left, right, 2 * window)
                yield left_orbit, left_phase, right_orbit, right_phase, joins[left, right]


def count_asymptotic_sequences(sft: Sft, p_set: PeriodicOrbitSet,
                               q_set: PeriodicOrbitSet, window: int) -> int:
    """How many sequences `asymptotic_sequences` yields at this window: the
    paths of 2 * window + 1 steps from each left symbol at -window-1 to each
    right symbol at window."""
    return sum(count_paths(sft, left, right, 2 * window + 1)
               for q in q_set.orbits for left in q.word
               for p in p_set.orbits for right in p.word)


def enumerate_heteroclinic(sft: Sft, p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                           window: int) -> list[HeteroclinicPoint]:
    """All heteroclinic points whose canonical window lies within
    [-window, window], in a fixed lexicographic order: the
    `asymptotic_sequences` at this window, canonicalized by `make_point`
    (which never moves n_left below -window), whose m_right fits.

    Raises WindowOverflow, before building any point, when the sequences
    times 2 * window + 1 exceed ENUMERATION_CAP, which bounds the symbols
    held rather than the sequences alone.  A sequence periodic outside
    [-w, w) is periodic outside [-w-1, w+1), so that product never shrinks
    as the window grows, and the windows are counted upwards until one
    exceeds the cap: a huge window costs no huge path counts.
    """
    for w in range(window + 1):
        count = count_asymptotic_sequences(sft, p_set, q_set, w)
        if count * (2 * w + 1) > ENUMERATION_CAP:
            raise WindowOverflow(f"window {window} needs more than {ENUMERATION_CAP} "
                                 f"symbols ({count} sequences x {2 * w + 1} at window {w})")
    points = (make_point(left, lph, -window, middle, right, rph, window)
              for left, lph, right, rph, middles in asymptotic_sequences(sft, p_set, q_set, window)
              for middle in middles)
    return sorted((z for z in points if z.m_right <= window), key=point_key)
