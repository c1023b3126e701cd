import itertools
import math
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from sfttrace.algebra import (
    BISECTIONS,
    BisectionError,
    SideMismatch,
    StableBisection,
    UnstableBisection,
    agreement_bound,
    apply_alpha,
    convolve,
    diagonal,
    element,
    involute,
    refine,
    tau,
    tau_s,
    tau_u,
    trace_property_check,
)
from sfttrace.algebra import _reflect
from sfttrace.fixtures import (
    all_systems,
    golden_mean,
    random_element,
    random_left_ray,
    random_right_ray,
)
from sfttrace.perron import compute_perron
from sfttrace.points import (
    InadmissibleOrbit,
    LeftRay,
    lowest_difference,
    make_left_ray,
    make_orbit,
    make_right_ray,
    periodic_left_ray,
    periodic_right_ray,
    rays_agree,
    reflect,
)
from sfttrace.sft import make_sft

PHI = (1 + math.sqrt(5)) / 2

FULL = make_sft([[1, 1], [1, 1]], ["0", "1"])
GOLDEN = make_sft([[1, 1], [1, 0]], ["0", "1"])

ORB0 = make_orbit((0,))
ORB1 = make_orbit((1,))

P_FULL = compute_perron(FULL)
P_GOLDEN = compute_perron(GOLDEN)
SYS_GOLDEN = golden_mean()


def lray(sft, orbit, body, end, phase=0):
    return make_left_ray(sft, orbit, phase, end - len(body), body, end)


def rray(sft, orbit, body, start, phase=0):
    return make_right_ray(sft, orbit, phase, start, body, start + len(body))


def test_bisection_invariants():
    a = periodic_left_ray(GOLDEN, ORB0, 0)
    b = lray(GOLDEN, ORB0, (1, 0), 0)
    StableBisection(a, b)  # both end in 0
    with pytest.raises(BisectionError):
        StableBisection(a, a.shift(1))  # windows differ
    with pytest.raises(BisectionError):
        StableBisection(lray(GOLDEN, ORB0, (1,), 0), a)  # terminals 1 vs 0


@pytest.mark.parametrize("side", ["stable", "unstable"])
def test_sort_key_is_window_then_ray_tuples(side):
    # the shared key, against each side's own ray fields
    at = "end" if side == "stable" else "start"
    for sys in all_systems():
        for _, e in random_element(random.Random(7), sys, side, 12).terms:
            w = getattr(e.target, at)
            assert e.window == w == getattr(e.source, at)
            assert e.sort_key() == (w, *((getattr(r, at), r.splice, r.body, r.orbit.word, r.phase)
                                         for r in (e.target, e.source)))


def test_bisection_validates_exactly_when_its_reflection_does():
    rng = random.Random(11)
    for sys in all_systems():
        orbit = sys.q_set.orbits[0]
        for _ in range(60):
            target, source = (random_left_ray(rng, sys.sft, orbit, rng.randrange(-1, 2))
                              for _ in range(2))
            for side, mirror, rays in (("stable", "unstable", (target, source)),
                                       ("unstable", "stable", (reflect(target), reflect(source)))):
                try:
                    e = BISECTIONS[side](*rays)
                except BisectionError:
                    with pytest.raises(BisectionError):
                        BISECTIONS[mirror](*map(reflect, rays))
                    continue
                assert _reflect(_reflect(e, mirror), side) == e


def test_element_reduction_merges_and_drops():
    a = periodic_left_ray(FULL, ORB1, 0)
    e = StableBisection(a, a)
    el = element("stable", [(0.5, e), (0.5, e)])
    assert el.terms == ((1 + 0j, e),)
    assert (el - el).is_zero
    # only an exact zero is dropped: a tiny coefficient is a term like any other
    assert element("stable", [(1e-16, e)]).terms == ((1e-16 + 0j, e),)


def test_element_side_checks():
    a = periodic_left_ray(FULL, ORB1, 0)
    f = UnstableBisection(periodic_right_ray(FULL, ORB0, 0), periodic_right_ray(FULL, ORB0, 0))
    with pytest.raises(SideMismatch):
        element("stable", [(1,  f)])
    with pytest.raises(SideMismatch):
        diagonal("stable", a) + diagonal("unstable", f.target)
    with pytest.raises(SideMismatch):
        convolve(diagonal("stable", a), diagonal("unstable", f.target))


def test_refine_same_window_is_identity():
    a = periodic_left_ray(FULL, ORB1, 0)
    e = StableBisection(a, a)
    assert refine(FULL, e, 0) == [e]


def test_refine_full_shift_branches():
    a = periodic_left_ray(FULL, ORB1, 0)
    e = StableBisection(a, a)
    pieces = refine(FULL, e, 1)
    assert len(pieces) == 2
    assert all(p.window == 1 for p in pieces)


def test_refine_golden_single_branch():
    # rays ending in symbol 1: only 1 -> 0 is allowed
    a = lray(GOLDEN, ORB0, (1,), 0)
    e = StableBisection(a, a)
    pieces = refine(GOLDEN, e, 1)
    assert len(pieces) == 1
    assert pieces[0].source.terminal == 0


def test_refine_unstable_mirror():
    g = periodic_right_ray(GOLDEN, ORB0, 0)
    f = UnstableBisection(g, g)
    pieces = refine(GOLDEN, f, -1)
    assert len(pieces) == 2  # 0 and 1 both precede 0
    assert all(p.window == -1 for p in pieces)


def test_convolve_groupoid_rules():
    alpha = periodic_left_ray(FULL, ORB1, 0)
    beta = lray(FULL, ORB1, (0, 1), 0)
    gamma = lray(FULL, ORB1, (1, 0, 1), 0)
    e_ab = element("stable", [(1, StableBisection(alpha, beta))])
    e_bg = element("stable", [(1, StableBisection(beta, gamma))])
    e_ag = element("stable", [(1, StableBisection(alpha, gamma))])
    assert convolve(e_ab, e_bg) == e_ag
    # mismatched inner rays compose to zero
    assert convolve(e_ab, e_ab).is_zero
    # diagonal idempotent
    proj = diagonal("stable", alpha)
    assert convolve(proj, proj) == proj


def test_convolve_window_mismatch():
    alpha = periodic_left_ray(FULL, ORB1, 0)
    proj0 = diagonal("stable", alpha)
    proj1 = diagonal("stable", alpha.extend((0,)))
    # finer projection sits inside the coarser one
    assert convolve(proj0, proj1) == proj1
    assert convolve(proj1, proj0) == proj1


def test_involute():
    alpha = periodic_left_ray(FULL, ORB1, 0)
    beta = lray(FULL, ORB1, (0, 1), 0)
    proj = diagonal("stable", alpha)
    assert involute(proj) == proj
    e = element("stable", [((2 + 1j), StableBisection(alpha, beta))])
    estar = involute(e)
    assert estar.terms[0][0] == 2 - 1j
    assert estar.terms[0][1] == StableBisection(beta, alpha)
    assert involute(estar) == e


def test_involute_antimultiplicative():
    rng = random.Random(11)
    a = random_element(rng, SYS_GOLDEN, "stable", 2)
    b = random_element(rng, SYS_GOLDEN, "stable", 2)
    assert involute(convolve(a, b)) == convolve(involute(b), involute(a))


def test_apply_alpha_group_action():
    rng = random.Random(3)
    a = random_element(rng, SYS_GOLDEN, "stable", 3)
    assert apply_alpha(a, 0) == a
    assert apply_alpha(apply_alpha(a, 3), -3) == a
    b = random_element(rng, SYS_GOLDEN, "unstable", 3)
    assert apply_alpha(apply_alpha(b, -2), 2) == b


def test_apply_alpha_is_automorphism():
    rng = random.Random(5)
    a = random_element(rng, SYS_GOLDEN, "stable", 2)
    b = random_element(rng, SYS_GOLDEN, "stable", 2)
    for n in (1, -2):
        assert apply_alpha(convolve(a, b), n) == convolve(apply_alpha(a, n), apply_alpha(b, n))
        assert apply_alpha(involute(a), n) == involute(apply_alpha(a, n))


def test_tau_examples():
    ones = diagonal("stable", periodic_left_ray(FULL, ORB1, 0))
    assert tau_s(ones, P_FULL) == pytest.approx(1.0, abs=1e-12)
    zeros = diagonal("stable", periodic_left_ray(GOLDEN, ORB0, 0))
    assert tau_s(zeros, P_GOLDEN) == pytest.approx(PHI, abs=1e-11)
    # off-diagonal vanishes
    alpha = periodic_left_ray(GOLDEN, ORB0, 0)
    beta = lray(GOLDEN, ORB0, (1, 0), 0)
    off = element("stable", [(1, StableBisection(alpha, beta))])
    assert tau_s(off, P_GOLDEN) == 0
    fut = diagonal("unstable", periodic_right_ray(GOLDEN, ORB0, 0))
    assert tau_u(fut, P_GOLDEN) == pytest.approx(PHI / math.sqrt(5), abs=1e-11)


def test_tau_side_guards():
    ones = diagonal("stable", periodic_left_ray(FULL, ORB1, 0))
    with pytest.raises(SideMismatch):
        tau_u(ones, P_FULL)


def test_tau_alpha_scaling():
    # stable trace scales by lambda under the shift automorphism,
    # unstable by 1/lambda (leaf-measure scaling)
    zeros = diagonal("stable", periodic_left_ray(GOLDEN, ORB0, 0))
    assert tau_s(apply_alpha(zeros, 1), P_GOLDEN) == pytest.approx(
        P_GOLDEN.lam * tau_s(zeros, P_GOLDEN).real, abs=1e-10
    )
    fut = diagonal("unstable", periodic_right_ray(GOLDEN, ORB0, 0))
    assert tau_u(apply_alpha(fut, 1), P_GOLDEN) == pytest.approx(
        tau_u(fut, P_GOLDEN).real / P_GOLDEN.lam, abs=1e-10
    )


def test_tau_alpha_scaling_period_two_ray():
    # shifting a ray moves its symbols along with the window, so the scaling
    # law also holds over a 2-cycle orbit (the terminal symbol tracks along)
    orb01 = make_orbit((0, 1), GOLDEN)
    for phase in (0, 1):
        ray = periodic_left_ray(GOLDEN, orb01, 0, phase_at_end=phase)
        a = diagonal("stable", ray)
        for n in (1, 2, -3):
            assert tau_s(apply_alpha(a, n), P_GOLDEN).real == pytest.approx(
                P_GOLDEN.lam ** n * tau_s(a, P_GOLDEN).real, rel=1e-10
            )


def test_star_algebra_axioms_sampled():
    rng = random.Random(17)
    a = random_element(rng, SYS_GOLDEN, "stable", 2)
    b = random_element(rng, SYS_GOLDEN, "stable", 2)
    c = random_element(rng, SYS_GOLDEN, "stable", 2)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
    assert convolve(a + b, c) == convolve(a, c) + convolve(b, c)
    assert convolve(c, a + b) == convolve(c, a) + convolve(c, b)


def test_tau_positive_and_faithful_sampled():
    rng = random.Random(23)
    for _ in range(20):
        a = random_element(rng, SYS_GOLDEN, "stable", 2)
        val = tau_s(convolve(involute(a), a), P_GOLDEN)
        assert abs(val.imag) < 1e-12
        assert val.real >= -1e-12
        if not a.is_zero:
            assert val.real > 1e-12


def test_trace_property_examples():
    alpha = periodic_left_ray(GOLDEN, ORB0, 0)
    beta = lray(GOLDEN, ORB0, (1, 0), 0)
    da = diagonal("stable", alpha)
    db = diagonal("stable", beta)
    assert trace_property_check(da, db, P_GOLDEN)
    # e_{a,b} against e_{b,a}: holonomy invariance makes both sides equal
    e = element("stable", [(1, StableBisection(alpha, beta))])
    f = element("stable", [(1, StableBisection(beta, alpha))])
    assert trace_property_check(e, f, P_GOLDEN)


def test_trace_property_random():
    rng = random.Random(41)
    for _ in range(10):
        a = random_element(rng, SYS_GOLDEN, "stable", 3)
        b = random_element(rng, SYS_GOLDEN, "stable", 3)
        assert trace_property_check(a, b, P_GOLDEN)
        au = random_element(rng, SYS_GOLDEN, "unstable", 3)
        bu = random_element(rng, SYS_GOLDEN, "unstable", 3)
        assert trace_property_check(au, bu, P_GOLDEN)


def test_coarse_element_equals_refined_sum_behaviorally():
    # a coarse diagonal indicator and the sum of its refinement pieces
    # represent the same function: same trace, and same products
    alpha = periodic_left_ray(FULL, ORB1, 0)
    e = StableBisection(alpha, alpha)
    coarse = element("stable", [(1, e)])
    fine = element("stable", [(1, piece) for piece in refine(FULL, e, 2)])
    assert tau_s(coarse, P_FULL) == pytest.approx(tau_s(fine, P_FULL).real, abs=1e-12)
    probe = diagonal("stable", lray(FULL, ORB1, (0, 1), 1))
    assert convolve(coarse, probe) == convolve(fine, probe)


def test_zero_element():
    z = element("stable", ())
    assert z.is_zero
    a = diagonal("stable", periodic_left_ray(FULL, ORB1, 0))
    assert convolve(z, a).is_zero
    assert tau(z, P_FULL) == 0


def _bound_reference(x, y):
    """The agreement bound of two rays with one window, read coordinate by
    coordinate: the lowest coordinate where two left rays differ, the
    highest for two right rays.  Beyond both splices (below the lower one
    of left rays, above the higher one of right rays) the pair repeats
    with period p * q, so a difference there shows within p * q
    coordinates and recurs forever: the bound is then infinite."""
    far = x.orbit.period * y.orbit.period
    if isinstance(x, LeftRay):
        lo = min(x.splice, y.splice)
        diffs = [m for m in range(lo - far, x.end) if x.symbol_at(m) != y.symbol_at(m)]
        return math.inf if not diffs else -math.inf if diffs[0] < lo else diffs[0]
    hi = max(x.splice, y.splice)
    diffs = [m for m in range(x.start, hi + far) if x.symbol_at(m) != y.symbol_at(m)]
    return -math.inf if not diffs else math.inf if diffs[-1] >= hi else diffs[-1]


def _orbits(sft):
    """Every admissible primitive orbit of period at most 3."""
    out = set()
    for word in itertools.chain.from_iterable(
            itertools.product(range(sft.n), repeat=n) for n in (1, 2, 3)):
        try:
            out.add(make_orbit(word, sft))
        except InadmissibleOrbit:
            pass
    return sorted(out, key=lambda orbit: orbit.word)


SYSTEM_ORBITS = [(sys.sft, _orbits(sys.sft)) for sys in all_systems()]


@seed(20261019)
@settings(max_examples=150, database=None, deadline=None)
@given(system=st.sampled_from(SYSTEM_ORBITS), rng_seed=st.integers(0, 2 ** 32),
       kind=st.sampled_from(["diagonal", "same orbit", "any orbit"]),
       shift=st.integers(0, 40))
@example(system=SYSTEM_ORBITS[0], rng_seed=0, kind="same orbit", shift=40)
def test_agreement_bounds_and_rays_agree_match_coordinate_reference(system, rng_seed, kind,
                                                                    shift):
    # on random rays over one orbit or two, in phase or out of it, with
    # bodies of 0 to 3 symbols on either ray: the bounds and the segment
    # helper equal their coordinate-by-coordinate readings, the segment
    # over stretches far longer than the rays' bodies and periods
    sft, orbits = system
    rng = random.Random(rng_seed)
    for _ in range(8):
        orbit = rng.choice(orbits)
        other = orbit if kind == "same orbit" else rng.choice(orbits)
        end, start = rng.randrange(-3, 4), rng.randrange(-3, 4)
        left = random_left_ray(rng, sft, orbit, end)
        right = random_right_ray(rng, sft, other, start)
        if kind == "diagonal":
            left2, right2 = left, right
        else:
            left2 = random_left_ray(rng, sft, other, end)
            right2 = random_right_ray(rng, sft, orbit, start)
        assert lowest_difference(left, left2) == _bound_reference(left, left2)
        for side, rays in (("stable", (left, left2)), ("unstable", (right, right2))):
            try:
                term = BISECTIONS[side](*rays)
            except BisectionError:  # the rays disagree next to the window
                continue
            assert agreement_bound(term) == _bound_reference(*rays), (side, rays)
        for past, future in ((left, right), (left2, right2), (left, right2)):
            reference = all(past.symbol_at(x + shift) == future.symbol_at(x)
                            for x in range(future.start, past.end - shift))
            assert rays_agree(past, future, shift) == reference, (past, future, shift)


def test_rays_agree_on_periodic_tails_across_every_phase_and_length():
    # two purely periodic rays over every pair of full-shift orbits of
    # period at most 3, in every pair of phases, over every stretch length
    # up to 9: tails of periods p and q that are not the same agree on
    # fewer than p + q - gcd(p, q) coordinates (Fine and Wilf), and (01)
    # and (001) do agree on "010"
    sft, orbits = SYSTEM_ORBITS[0]
    for past_orbit, future_orbit in itertools.product(orbits, repeat=2):
        for i, j in itertools.product(range(past_orbit.period), range(future_orbit.period)):
            past = periodic_left_ray(sft, past_orbit, 0, i)
            future = periodic_right_ray(sft, future_orbit, 0, j)
            for shift in range(-9, 1):
                reference = all(past.symbol_at(x + shift) == future.symbol_at(x)
                                for x in range(0, -shift))
                assert rays_agree(past, future, shift) == reference, (past, future, shift)
