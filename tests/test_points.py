import itertools
import random

import pytest

from sfttrace.points import (
    HeteroclinicPoint,
    InadmissibleOrbit,
    IncompatibleAtZero,
    WindowOverflow,
    asymptotic_sequences,
    bracket,
    count_asymptotic_sequences,
    enumerate_heteroclinic,
    make_left_ray,
    make_orbit,
    make_orbit_set,
    make_point,
    make_right_ray,
    periodic_left_ray,
    periodic_right_ray,
    shift_point,
    splice_point,
)
from sfttrace.sft import Sft, Word, is_admissible, make_sft

FULL = make_sft([[1, 1], [1, 1]], ["0", "1"])
GOLDEN = make_sft([[1, 1], [1, 0]], ["0", "1"])

ORB0 = make_orbit((0,))
ORB1 = make_orbit((1,))
ORB01 = make_orbit((0, 1))


def fixed_point(orbit):
    # aligned phases: symbol at -1 is word[p-1], symbol at 0 is word[0]
    return make_point(orbit, orbit.period - 1, 0, (), orbit, 0, 0)


def point_is_admissible(sft, z):
    # every transition around the non-periodic window (the periodic tails
    # are admissible whenever their orbits are)
    z.left_orbit.validate(sft)
    z.right_orbit.validate(sft)
    lo = z.n_left - z.left_orbit.period
    hi = z.m_right + z.right_orbit.period
    return is_admissible(sft, Word(lo, z.segment(lo, hi + 1)))


def split_point(sft, left_orbit, right_orbit):
    # all left-orbit pattern below 0, right-orbit pattern from 0 on
    return make_point(left_orbit, left_orbit.period - 1, 0, (), right_orbit, 0, 0)


def test_orbit_minimal_rotation():
    assert make_orbit((1, 0)).word == (0, 1)
    with pytest.raises(InadmissibleOrbit):
        make_orbit((0, 1, 0, 1))  # not primitive
    with pytest.raises(InadmissibleOrbit):
        make_orbit((1,), GOLDEN)  # 1 -> 1 forbidden
    make_orbit((0, 1), GOLDEN)  # fine


def test_orbit_set_disjointness():
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    assert p.isdisjoint(q)
    assert not p.isdisjoint(make_orbit_set([[0], [1]], FULL))
    with pytest.raises(InadmissibleOrbit):
        make_orbit_set([[0], [0]], FULL)


def test_left_ray_canonicalization():
    # body prefix that continues the periodic pattern is absorbed
    ray = make_left_ray(GOLDEN, ORB0, 0, -3, (0, 0, 1), 0)
    assert ray.splice == -1
    assert ray.body == (1,)
    assert ray.terminal == 1
    # idempotent: rebuilding from its own data changes nothing
    again = make_left_ray(GOLDEN, ray.orbit, ray.phase, ray.splice, ray.body, ray.end)
    assert again == ray


def test_right_ray_canonicalization():
    ray = make_right_ray(GOLDEN, ORB0, 0, 0, (1, 0, 0), 3)
    assert ray.splice == 1
    assert ray.body == (1,)
    assert ray.initial == 1


def test_ray_symbols_and_truncate():
    ray = make_left_ray(GOLDEN, ORB01, 1, 0, (0, 0), 2)  # ...0101 then 00
    assert [ray.symbol_at(m) for m in range(-4, 2)] == [0, 1, 0, 1, 0, 0]
    trunc = ray.truncate(1)
    assert [trunc.symbol_at(m) for m in range(-4, 1)] == [0, 1, 0, 1, 0]
    # truncating into the periodic part leaves a pure periodic ray
    deep = ray.truncate(-2)
    assert deep.body == ()
    assert deep.symbol_at(-3) == 1 and deep.symbol_at(-4) == 0


def test_ray_extend_then_truncate_roundtrip():
    ray = periodic_left_ray(GOLDEN, ORB0, 0)
    ext = ray.extend((1, 0))
    assert ext.end == 2
    assert ext.truncate(0) == ray
    fut = periodic_right_ray(GOLDEN, ORB0, 0)
    ext2 = fut.extend((0, 1))
    assert ext2.start == -2
    assert ext2.truncate(0) == fut


def test_point_canonicalization_absorbs_middle():
    # middle symbols repeating the periodic sides get absorbed:
    # the sequence is 1s through -2 and 0s from -1 on
    z = make_point(ORB1, 0, -2, (1, 0, 0), ORB0, 0, 1)
    assert z.window == (-1, -1)
    assert z.middle == ()
    assert z.segment(-3, 1) == (1, 1, 0, 0)
    # fully periodic data collapses to the anchored orbit point
    w = make_point(ORB0, 0, -5, (0, 0, 0), ORB0, 0, -2)
    assert w == fixed_point(ORB0)


def test_point_canonical_idempotent():
    z = make_point(ORB1, 0, -1, (0, 1), ORB0, 0, 1)
    again = make_point(z.left_orbit, z.left_phase, z.n_left, z.middle,
                       z.right_orbit, z.right_phase, z.m_right)
    assert again == z


def test_junction_slides_right():
    # all-zeros past glued at -2 to the (01) pattern anchored 0 at -2:
    # the 0 at -2 continues the past, so the junction slides to -1
    z = make_point(ORB0, 0, -2, (), ORB01, 0, -2)
    assert z == HeteroclinicPoint(ORB0, 0, -1, (), ORB01, 1, -1)
    assert z.segment(-3, 2) == (0, 0, 1, 0, 1)


def test_symbol_at_and_segment():
    z = make_point(ORB1, 0, 0, (), ORB0, 0, 0)
    assert z.segment(-3, 3) == (1, 1, 1, 0, 0, 0)


@pytest.mark.parametrize("kind", ["empty", "reversed", "left", "middle", "right", "spanning"])
def test_segment_matches_symbol_at(kind):
    # segment slices the middle and repeated orbit words; symbol_at reads one
    # coordinate at a time and is the reference
    rng = random.Random(f"segment-{kind}")
    orbits = [ORB0, ORB01, make_orbit((0, 0, 1)), make_orbit((0, 1, 2))]
    for _ in range(300):
        left, right = rng.choice(orbits), rng.choice(orbits)
        n = rng.randrange(-6, 7)
        middle = tuple(rng.randrange(3) for _ in range(rng.randrange(kind == "middle", 5)))
        m = n + len(middle)
        z = HeteroclinicPoint(left, rng.randrange(left.period), n, middle,
                              right, rng.randrange(right.period), m)
        if kind == "empty":
            lo = hi = rng.randrange(n - 8, m + 9)
        elif kind == "reversed":
            lo = rng.randrange(n - 8, m + 9)
            hi = lo - rng.randrange(1, 8)
        elif kind == "left":
            hi = n - rng.randrange(0, 5)
            lo = hi - rng.randrange(1, 12)
        elif kind == "middle":
            lo = rng.randrange(n, m)
            hi = rng.randrange(lo + 1, m + 1)
        elif kind == "right":
            lo = m + rng.randrange(0, 5)
            hi = lo + rng.randrange(1, 12)
        else:
            lo = n - rng.randrange(1, 12)
            hi = m + rng.randrange(1, 12)
        assert z.segment(lo, hi) == tuple(z.symbol_at(i) for i in range(lo, hi))


def test_shift_point_examples():
    p = fixed_point(ORB0)
    assert shift_point(p, 5) == p
    z = split_point(FULL, ORB1, ORB0)
    z1 = shift_point(z, 1)
    assert z1.window == (-1, -1)
    assert shift_point(shift_point(z, 3), -3) == z


def test_equal_points_hash_equal():
    # each point hashes its fields once and keeps the value: equal points
    # built by different routes hash equal, and dict lookups find one by
    # the other
    rng = random.Random(20261018)
    orbits = (ORB0, ORB1, ORB01)
    for _ in range(200):
        left, right = rng.choice(orbits), rng.choice(orbits)
        n = rng.randrange(-4, 5)
        middle = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
        z = make_point(left, rng.randrange(left.period), n, middle,
                       right, rng.randrange(right.period), n + len(middle))
        shift = rng.randrange(-6, 7)
        w = shift_point(shift_point(z, shift), -shift)
        assert w == z and w is not z
        assert hash(w) == hash(z) == hash((z.left_orbit, z.left_phase, z.n_left, z.middle,
                                           z.right_orbit, z.right_phase, z.m_right))
        assert {z: 1}[w] == 1
    assert shift_point(fixed_point(ORB01), 1) != fixed_point(ORB01)


def test_shift_point_rotates_periodic_orbit():
    z = fixed_point(ORB01)
    z1 = shift_point(z, 1)
    assert z1 != z
    assert z1.symbol_at(0) == z.symbol_at(1)
    assert shift_point(z1, 1) == z


def test_bracket_examples():
    x = split_point(FULL, ORB1, ORB0)
    assert bracket(x, x) == x
    y = fixed_point(ORB0)
    assert bracket(x, y) == y  # past of y, future of x: all zeros
    assert bracket(y, x) == x
    gx = fixed_point(ORB0)
    gy = make_point(ORB0, 0, 0, (1,), ORB0, 0, 1)  # symbol 1 at index 0
    with pytest.raises(IncompatibleAtZero):
        bracket(gx, gy)


def test_bracket_mixes_past_and_future():
    x = make_point(ORB1, 0, 0, (0, 1), ORB0, 0, 2)  # ...111|01|000...
    y = make_point(ORB1, 0, -1, (), ORB0, 0, -1)    # ...11|000... switching at -1
    z = bracket(x, y)
    assert z.segment(-3, 3) == (1, 1, 0, 0, 1, 0)
    assert z.window == (-1, 2)


def test_splice_point():
    past = periodic_left_ray(GOLDEN, ORB0, -1)
    future = periodic_right_ray(GOLDEN, ORB0, 1)
    z = splice_point(past, (1, 0), future)
    assert z.window == (-1, 0)
    assert z.segment(-2, 2) == (0, 1, 0, 0)
    assert point_is_admissible(GOLDEN, z)


def test_enumerate_full_shift_w0():
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    pts = enumerate_heteroclinic(FULL, p, q, 0)
    assert len(pts) == 1
    assert pts[0].segment(-2, 2) == (1, 1, 0, 0)


def test_enumerate_full_shift_w1():
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    pts = enumerate_heteroclinic(FULL, p, q, 1)
    assert len(pts) == 4
    segments = {z.segment(-2, 2) for z in pts}
    assert segments == {(1, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0), (1, 0, 1, 0)}


def test_enumerate_golden_w1():
    pq = make_orbit_set([[0]], GOLDEN)
    pts = enumerate_heteroclinic(GOLDEN, pq, pq, 1)
    assert len(pts) == 3
    segments = {z.segment(-2, 2) for z in pts}
    assert segments == {(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)}


def test_enumerate_monotone_and_membership():
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    prev = set()
    for w in range(0, 4):
        pts = enumerate_heteroclinic(FULL, p, q, w)
        cur = set(pts)
        assert prev <= cur
        prev = cur
        for z in pts:
            n, m = z.window
            assert -w <= n <= m <= w
            assert z.left_orbit in q
            assert z.right_orbit in p
            assert point_is_admissible(FULL, z)
            assert shift_point(z, 2).left_orbit in q.orbits


def direct_count(sft, q_orbit, p_orbit, w):
    # independent oracle: canonicalize every admissible assignment on [-w, w)
    seen = set()
    for assignment in itertools.product(range(sft.n), repeat=2 * w):
        syms = (q_orbit.word[-1],) + assignment + (p_orbit.word[0],)
        if all(sft.allowed(a, b) for a, b in zip(syms, syms[1:])):
            seen.add(
                make_point(q_orbit, q_orbit.period - 1, -w, assignment,
                           p_orbit, 0, w)
            )
    return seen


@pytest.mark.parametrize("w", range(0, 7))
def test_enumeration_matches_direct_sequences_full(w):
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    pts = set(enumerate_heteroclinic(FULL, p, q, w))
    assert pts == direct_count(FULL, q.orbits[0], p.orbits[0], w)


@pytest.mark.parametrize("w", range(0, 7))
def test_enumeration_matches_direct_sequences_golden(w):
    pq = make_orbit_set([[0]], GOLDEN)
    pts = set(enumerate_heteroclinic(GOLDEN, pq, pq, w))
    assert pts == direct_count(GOLDEN, pq.orbits[0], pq.orbits[0], w)


def test_enumerate_deterministic_order():
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    a = enumerate_heteroclinic(FULL, p, q, 3)
    b = enumerate_heteroclinic(FULL, p, q, 3)
    assert a == b


def test_bracket_period_two_orbits():
    # x: (01) pattern with a 00 defect on [0, 2); its shift moves the defect
    x = make_point(ORB01, 1, 0, (0, 0), ORB01, 0, 2)
    assert x.segment(-2, 4) == (0, 1, 0, 0, 0, 1)
    y = fixed_point(ORB01)
    # pasts agree, so the bracket returns the argument supplying the future
    assert bracket(x, y) == x
    assert bracket(y, x) == y
    x2 = shift_point(x, 2)
    z = bracket(x, x2)  # past of x2 (defect left of 0), future of x
    assert z.segment(-4, 4) == (0, 1, 0, 0, 0, 0, 0, 1)


def direct_count_phases(sft, q_orbit, p_orbit, w):
    # assignment oracle over all boundary phases: build on a wider explicit
    # region (so every candidate is reachable), then keep exactly the points
    # whose canonical window fits
    wide = w + max(q_orbit.period, p_orbit.period)
    seen = set()
    for lph in range(q_orbit.period):
        for rph in range(p_orbit.period):
            for assignment in itertools.product(range(sft.n), repeat=2 * wide):
                left = q_orbit.word[lph]
                right = p_orbit.word[rph]
                syms = (left,) + assignment + (right,)
                if all(sft.allowed(a, b) for a, b in zip(syms, syms[1:])):
                    z = make_point(q_orbit, lph, -wide, assignment,
                                   p_orbit, rph, wide)
                    n, m = z.window
                    if -w <= n and m <= w:
                        seen.add(z)
    return seen


@pytest.mark.parametrize("w", range(0, 4))
def test_enumeration_with_period_two_orbit(w):
    p = make_orbit_set([[0, 1]], FULL)
    q = make_orbit_set([[1]], FULL)
    pts = set(enumerate_heteroclinic(FULL, p, q, w))
    assert pts == direct_count_phases(FULL, q.orbits[0], p.orbits[0], w)


@pytest.mark.parametrize("w", range(0, 4))
def test_enumeration_period_two_both_sides(w):
    pq = make_orbit_set([[0, 1]], GOLDEN)
    pts = set(enumerate_heteroclinic(GOLDEN, pq, pq, w))
    assert pts == direct_count_phases(GOLDEN, pq.orbits[0], pq.orbits[0], w)


def test_enumerate_window_guard():
    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    with pytest.raises(ValueError):
        enumerate_heteroclinic(FULL, p, q, -1)


@pytest.mark.parametrize("sft, q_word, p_word", [
    (FULL, [1], [0]), (FULL, [0], [0, 1]), (GOLDEN, [0, 1], [0]), (GOLDEN, [0, 1], [0, 1]),
], ids=["full-1-0", "full-0-01", "golden-01-0", "golden-01-01"])
def test_asymptotic_sequences_once_each(sft, q_word, p_word):
    q, p = make_orbit_set([q_word], sft), make_orbit_set([p_word], sft)
    q_orbit, p_orbit = q.orbits[0], p.orbits[0]
    slide = q_orbit.period + p_orbit.period
    for w in range(4):
        points = []
        for left, lphase, right, rphase, middles in asymptotic_sequences(sft, p, q, w):
            for middle in middles:
                z = make_point(left, lphase, -w, middle, right, rphase, w)
                assert z.segment(-w - 1, w + 1) == (left.word[lphase],) + middle + (
                    right.word[rphase],)
                assert point_is_admissible(sft, z)
                assert -w <= z.n_left and z.m_right <= w + slide
                points.append(z)
        # distinct tuples are distinct sequences, and every point whose
        # canonical window fits is among them
        assert len(set(points)) == len(points)
        assert set(enumerate_heteroclinic(sft, p, q, w)) <= set(points)
        assert len(points) == count_asymptotic_sequences(sft, p, q, w)


@pytest.mark.parametrize("sft, p_words, q_words", [
    (FULL, [[0]], [[1]]), (FULL, [[0], [1]], [[0, 1]]), (GOLDEN, [[0]], [[0]]),
    (GOLDEN, [[0], [0, 1]], [[0, 1]]),
], ids=["full-1-0", "full-01-0+1", "golden-0-0", "golden-01-0+01"])
def test_count_asymptotic_sequences_matches_enumeration(sft, p_words, q_words):
    p, q = make_orbit_set(p_words, sft), make_orbit_set(q_words, sft)
    for w in range(7):
        assert count_asymptotic_sequences(sft, p, q, w) == sum(
            len(group[-1]) for group in asymptotic_sequences(sft, p, q, w))


THREE_SYMBOLS = make_sft([[1, 1, 0], [1, 0, 1], [1, 1, 1]])


@pytest.mark.parametrize("sft, p_words, q_words", [
    (FULL, [[0]], [[1]]), (FULL, [[0], [0, 1]], [[0, 0, 1], [1]]), (GOLDEN, [[0, 1]], [[0]]),
    (THREE_SYMBOLS, [[1, 2], [0]], [[2], [0, 1]]),
], ids=["full-0-1", "full-0+01-001+1", "golden-01-0", "three-12+0-2+01"])
def test_asymptotic_sequence_groups(sft, p_words, q_words):
    # one group per pair of tails, in order; its middles are every
    # admissible word of length 2w joining its two symbols, once each,
    # written out here by brute force over all words
    p, q = make_orbit_set(p_words, sft), make_orbit_set(q_words, sft)
    tails = [(left, lphase, right, rphase)
             for left in q.orbits for lphase in range(left.period)
             for right in p.orbits for rphase in range(right.period)]
    for w in range(4):
        groups = list(asymptotic_sequences(sft, p, q, w))
        assert [group[:4] for group in groups] == tails
        for left, lphase, right, rphase, middles in groups:
            ends = (left.word[lphase],), (right.word[rphase],)
            joining = [m for m in itertools.product(range(sft.n), repeat=2 * w)
                       if all(sft.allowed(s, t) for s, t in
                              itertools.pairwise(ends[0] + m + ends[1]))]
            assert list(middles) == joining
        assert sum(len(group[-1]) for group in groups) == count_asymptotic_sequences(
            sft, p, q, w)


def test_enumerate_cap_raises_before_building_points(monkeypatch):
    import sfttrace.points as points

    p = make_orbit_set([[0]], FULL)
    q = make_orbit_set([[1]], FULL)
    assert count_asymptotic_sequences(FULL, p, q, 3) == 64
    # window 2 holds 16 sequences x 5 symbols, window 3 holds 64 x 7 = 448
    monkeypatch.setattr(points, "ENUMERATION_CAP", 447)
    assert len(enumerate_heteroclinic(FULL, p, q, 2)) == 16

    def no_points(*args):
        raise AssertionError("a point was built past the cap")

    monkeypatch.setattr(points, "make_point", no_points)
    with pytest.raises(WindowOverflow, match="window 3 needs more than 447 symbols"):
        enumerate_heteroclinic(FULL, p, q, 3)
    # a huge window stops counting at the first window past the cap
    with pytest.raises(WindowOverflow, match=r"\(64 sequences x 7 at window 3\)"):
        enumerate_heteroclinic(FULL, p, q, 10 ** 9)


def test_enumerate_cap_counts_symbols_on_a_long_cycle(monkeypatch):
    # a 40-cycle with a loop at 0 and P = Q = {(0)} has few but long
    # sequences: 23,975 of 167 symbols pass the cap at window 83, 27,041 of
    # 169 do not at window 84.  Only counted, never enumerated.
    import sfttrace.points as points

    n = 40
    cycle = Sft(tuple(tuple(int(j == (i + 1) % n or i == j == 0) for j in range(n))
                      for i in range(n)))
    orbits = make_orbit_set([[0]], cycle)
    assert count_asymptotic_sequences(cycle, orbits, orbits, 83) == 23975
    assert count_asymptotic_sequences(cycle, orbits, orbits, 84) == 27041

    def no_points(*args):
        raise AssertionError("a point was built past the cap")

    monkeypatch.setattr(points, "make_point", no_points)
    with pytest.raises(WindowOverflow, match=r"\(27041 sequences x 169 at window 84\)"):
        enumerate_heteroclinic(cycle, orbits, orbits, 84)


def test_point_admissibility_negative():
    # make_point does not validate transitions; the checker must catch 11
    z = make_point(ORB0, 0, 0, (1, 1), ORB0, 0, 2)
    assert not point_is_admissible(GOLDEN, z)
    assert point_is_admissible(FULL, z)


def test_multi_symbol_orbit_rays():
    ray = periodic_left_ray(GOLDEN, ORB01, 0, phase_at_end=1)
    assert [ray.symbol_at(m) for m in (-3, -2, -1)] == [1, 0, 1]
    fut = periodic_right_ray(GOLDEN, ORB01, 0, phase_at_start=0)
    assert [fut.symbol_at(m) for m in (0, 1, 2)] == [0, 1, 0]
