"""Each guard against a malformed argument raises its own exception type
with its own message: the checks that the fixture runs never reach."""

import pytest

from sfttrace.algebra import (
    AlgebraElement,
    SideMismatch,
    StableBisection,
    UnstableBisection,
    diagonal,
    refine,
    tau_s,
)
from sfttrace.fixtures import System, canonical_pair, full_shift, offdiagonal_stable
from sfttrace.operators import FiniteOperator, product_operator
from sfttrace.points import (
    HeteroclinicPoint,
    LeftRay,
    RightRay,
    make_orbit,
    make_orbit_set,
    splice_point,
)
from sfttrace.sft import InvalidMatrix, Sft, is_admissible

FULL = full_shift()
ORBIT = make_orbit((0,))
LEFT = LeftRay(ORBIT, 0, 0, (), 0)
RIGHT = RightRay(ORBIT, 0, 0, (), 0)
# one symbol, which no other symbol can visit
LOOP = Sft([[1]])
LOOP_ORBITS = make_orbit_set([[0]], LOOP)

# case -> (the call, the exception type it raises, the exact message)
GUARDS = {
    "unknown side": (
        lambda: AlgebraElement("sideways", ()), ValueError, "unknown side 'sideways'"),
    "term of the other side": (
        lambda: AlgebraElement("stable", [(1, UnstableBisection(RIGHT, RIGHT))]),
        SideMismatch, "UnstableBisection in a stable element"),
    "stable refinement to a lower window": (
        lambda: refine(FULL.sft, StableBisection(LEFT, LEFT), -1),
        ValueError, "stable refinement must not shrink the window"),
    "unstable refinement to a higher window": (
        lambda: refine(FULL.sft, UnstableBisection(RIGHT, RIGHT), 1),
        ValueError, "unstable refinement must not shrink the window"),
    "refinement of a ray": (
        lambda: refine(FULL.sft, LEFT, 0), TypeError, f"not a bisection: {LEFT!r}"),
    "tau_s of an unstable element": (
        lambda: tau_s(diagonal("unstable", RIGHT), FULL.perron),
        SideMismatch, "tau_s expects a stable element"),
    "off-diagonal fixture without a detour": (
        lambda: offdiagonal_stable(System("loop", LOOP, LOOP_ORBITS, LOOP_ORBITS, None)),
        ValueError, "system has no length-2 detour at this symbol"),
    "product order": (
        lambda: product_operator(*canonical_pair(FULL), FULL.perron, "xy"),
        ValueError, "order must be 'ab' or 'ba'"),
    "operator over a zero denominator": (
        lambda: FiniteOperator({}, 0), ValueError, "operator denominator must be an int >= 1, not 0"),
    "operator over a negative denominator": (
        lambda: FiniteOperator({(LEFT, LEFT): (1, 0)}, -2),
        ValueError, "operator denominator must be an int >= 1, not -2"),
    "operator over a float denominator": (
        lambda: FiniteOperator({}, 2.0), ValueError, "operator denominator must be an int >= 1, not 2.0"),
    "left ray read at its end": (
        lambda: LEFT.symbol_at(0), IndexError, "left ray undefined at 0 >= 0"),
    "left ray truncated past its end": (
        lambda: LEFT.truncate(1), IndexError, "cannot truncate beyond defined coordinates"),
    "right ray read below its start": (
        lambda: RIGHT.symbol_at(-1), IndexError, "right ray undefined at -1 < 0"),
    "middle longer than the window": (
        lambda: HeteroclinicPoint(ORBIT, 0, 0, (1,), ORBIT, 0, 2),
        ValueError, "middle length does not match window"),
    "left phase past the period": (
        lambda: HeteroclinicPoint(ORBIT, 5, 0, (1,), ORBIT, 0, 1),
        ValueError, "phase out of range"),
    "negative right phase": (
        lambda: HeteroclinicPoint(ORBIT, 0, 0, (1,), ORBIT, -1, 1),
        ValueError, "phase out of range"),
    "rays and middle with a gap": (
        lambda: splice_point(LEFT, (1,), RIGHT), ValueError, "rays and middle do not tile the line"),
    "empty matrix": (lambda: Sft([]), InvalidMatrix, "empty transition matrix"),
    "more labels than symbols": (
        lambda: Sft([[1]], ["0", "1"]), InvalidMatrix, "label count does not match matrix size"),
    "symbol out of range": (
        lambda: is_admissible(FULL.sft, (0, 2)), ValueError, "symbol 2 out of range"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_guard_raises_its_type_and_message(case):
    call, kind, message = GUARDS[case]
    with pytest.raises(kind) as raised:
        call()
    assert raised.type is kind and str(raised.value) == message
