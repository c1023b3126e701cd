"""Built-in systems and element fixtures.

Three mixing systems cover the interesting regimes: the full 2-shift
(every scaled trace is exactly the target), the golden mean shift
(geometric convergence with a closed-form error), and an asymmetric
3-symbol system with no special structure.  Each carries a forward orbit
set P (futures), a backward orbit set Q (pasts), and a small family of
element pairs used by the verification suite.
"""

from __future__ import annotations

from .algebra import (
    BISECTIONS,
    AlgebraElement,
    BisectionError,
    StableBisection,
    UnstableBisection,
    diagonal,
    element,
)
from .perron import PerronData, compute_perron
from .points import (
    PeriodicOrbitSet,
    make_left_ray,
    make_orbit_set,
    make_right_ray,
    periodic_left_ray,
    periodic_right_ray,
    reflect,
)
from .sft import Sft, make_sft
from .values import Value


class System(Value):
    """A mixing shift with chosen orbit sets and Perron data."""

    _fields = ("name", "sft", "p_set", "q_set", "perron")

    def __init__(self, name: str, sft: Sft, p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                 perron: PerronData):
        self.__dict__.update(name=name, sft=sft, p_set=p_set, q_set=q_set, perron=perron)


def full_shift() -> System:
    sft = make_sft([[1, 1], [1, 1]], ["0", "1"])
    return System(
        "full-2-shift",
        sft,
        make_orbit_set([[0]], sft),
        make_orbit_set([[1]], sft),
        compute_perron(sft),
    )


def golden_mean() -> System:
    sft = make_sft([[1, 1], [1, 0]], ["0", "1"])
    zero_orbits = make_orbit_set([[0]], sft)
    return System("golden-mean", sft, zero_orbits, zero_orbits, compute_perron(sft))


def three_symbol() -> System:
    sft = make_sft([[1, 1, 0], [1, 0, 1], [1, 1, 1]], ["a", "b", "c"])
    return System(
        "three-symbol",
        sft,
        make_orbit_set([[0]], sft),
        make_orbit_set([[2]], sft),
        compute_perron(sft),
    )


def all_systems() -> list[System]:
    return [full_shift(), golden_mean(), three_symbol()]


def canonical_pair(sys: System) -> tuple[AlgebraElement, AlgebraElement]:
    """Diagonal indicators of the basic past/future cylinders at window 0."""
    q_orbit = sys.q_set.orbits[0]
    p_orbit = sys.p_set.orbits[0]
    a = diagonal("stable", periodic_left_ray(sys.sft, q_orbit, 0))
    b = diagonal("unstable", periodic_right_ray(sys.sft, p_orbit, 0))
    return a, b


def offdiagonal_stable(sys: System) -> AlgebraElement:
    """A single off-diagonal stable term whose rays differ below the window."""
    q_orbit = sys.q_set.orbits[0]
    alpha = periodic_left_ray(sys.sft, q_orbit, 0)
    body = _detour_body(sys.sft, q_orbit.word[0])
    beta = make_left_ray(sys.sft, q_orbit, 0, -len(body), body, 0)
    return element("stable", [(1, StableBisection(alpha, beta))])


def _detour_body(sft, symbol):
    """A length-2 admissible body ending in `symbol` that leaves the fixed
    loop: symbol -> other -> symbol."""
    for other in range(sft.n):
        if other != symbol and sft.allowed(symbol, other) and sft.allowed(other, symbol):
            return (other, symbol)
    raise ValueError("system has no length-2 detour at this symbol")


def mixed_pair(sys: System) -> tuple[AlgebraElement, AlgebraElement]:
    """Two-term elements with dyadic complex coefficients, mixed windows and
    an off-diagonal part; exercises every branch of the trace computation."""
    sft = sys.sft
    q_orbit = sys.q_set.orbits[0]
    p_orbit = sys.p_set.orbits[0]
    qs = q_orbit.word[0]
    ps = p_orbit.word[0]
    d1, _ = _detour_body(sft, qs)
    alpha2 = periodic_left_ray(sft, q_orbit, 1)
    beta2 = make_left_ray(sft, q_orbit, 0, -1, (d1, qs), 1)
    a = element(
        "stable",
        [
            (0.5, StableBisection(periodic_left_ray(sft, q_orbit, 0),
                                  periodic_left_ray(sft, q_orbit, 0))),
            (0.25 + 0.5j, StableBisection(alpha2, beta2)),
        ],
    )
    d2, _ = _detour_body(sft, ps)
    gamma2 = periodic_right_ray(sft, p_orbit, -1)
    delta2 = make_right_ray(sft, p_orbit, 0, -1, (ps, d2), 1)
    b = element(
        "unstable",
        [
            (1.0, UnstableBisection(periodic_right_ray(sft, p_orbit, 0),
                                    periodic_right_ray(sft, p_orbit, 0))),
            (0.125j, UnstableBisection(gamma2, delta2)),
        ],
    )
    return a, b


def fixture_pairs(sys: System):
    """Named (stable, unstable) pairs shipped for the verification suite."""
    a0, b0 = canonical_pair(sys)
    a1, b1 = mixed_pair(sys)
    return [
        ("canonical", a0, b0),
        ("offdiagonal", offdiagonal_stable(sys), b0),
        ("mixed", a1, b1),
    ]


# ---------------------------------------------------------------------------
# seeded random elements (dyadic coefficients keep test arithmetic exact)


def random_left_ray(rng, sft, orbit, end):
    """A seeded left ray over `orbit` ending at `end`, its body of 0 to 3
    symbols drawn from the last one back.  `make_sft` gives every symbol a
    predecessor, so a draw is repeated only when no phase fits the body."""
    while True:
        body = []
        for _ in range(rng.randrange(0, 4)):
            body.insert(0, rng.choice(
                [s for s in range(sft.n) if sft.allowed(s, body[0])] if body else range(sft.n)))
        phases = [
            ph
            for ph in range(orbit.period)
            if not body or sft.allowed(orbit.word[ph], body[0])
        ]
        if phases:
            return make_left_ray(sft, orbit, rng.choice(phases), end - len(body), body, end)


def random_right_ray(rng, sft, orbit, start):
    return reflect(random_left_ray(rng, sft.transpose, orbit.reversal[0], -start))


def random_dyadic(rng) -> complex:
    return complex(rng.randrange(-8, 9) / 8, rng.randrange(-8, 9) / 8)


def random_element(rng, sys: System, side: str, nterms: int) -> AlgebraElement:
    """Seeded random element over the system's own orbit sets."""
    if side == "stable":
        orbit, random_ray = sys.q_set.orbits[0], random_left_ray
    else:
        orbit, random_ray = sys.p_set.orbits[0], random_right_ray
    terms = []
    while len(terms) < nterms:
        window = rng.randrange(-2, 3)
        source = random_ray(rng, sys.sft, orbit, window)
        target = random_ray(rng, sys.sft, orbit, window)
        try:
            bisection = BISECTIONS[side](target, source)
        except BisectionError:  # the rays disagree next to the window
            continue
        terms.append((random_dyadic(rng), bisection))
    return element(side, terms)
