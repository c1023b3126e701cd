import hashlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from sys import modules as sys_modules

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from sfttrace.algebra import (
    AlgebraElement,
    BisectionError,
    StableBisection,
    UnstableBisection,
    apply_alpha,
    convolve,
    diagonal,
    element,
)
from sfttrace.fixtures import (
    System,
    canonical_pair,
    fixture_pairs,
    full_shift,
    golden_mean,
    mixed_pair,
    offdiagonal_stable,
    random_element,
    random_left_ray,
    random_right_ray,
    three_symbol,
)
from sfttrace.perron import NonFiniteCoefficient, compute_perron
from sfttrace.points import (
    HeteroclinicPoint,
    InadmissibleOrbit,
    PeriodicOrbitSet,
    asymptotic_sequences,
    enumerate_heteroclinic,
    make_left_ray,
    make_orbit,
    make_right_ray,
    periodic_left_ray,
    periodic_right_ray,
    shift_point,
)
from sfttrace.operators import (
    FiniteOperator,
    OrbitsNotDisjoint,
    apply_element,
    commutator_decay,
    operator_norm,
    product_operator,
    vanishing_product_check,
)
from sfttrace.points import WindowOverflow
from sfttrace.rep import (
    ExactTrace,
    WindowTooSmall,
    decoupling_step,
    required_window,
    scaled_trace_sequence,
    trace_product,
    trace_product_detail,
    trace_product_oracle,
)
from sfttrace.sft import Sft, ZeroRowOrColumn, count_paths, is_mixing, word_levels

PHI = (1 + math.sqrt(5)) / 2

FULL = full_shift()
GOLDEN = golden_mean()
THREE = three_symbol()


def fib(n):
    # fast-doubling Fibonacci, exact
    def doubling(m):
        if m == 0:
            return (0, 1)
        a, b = doubling(m >> 1)
        c = a * ((b << 1) - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return doubling(n)[0]


def apply_to_combination(x, vec: dict) -> dict:
    """The image of a finite combination of basis vectors, point -> coefficient."""
    out: dict = {}
    for w, cw in vec.items():
        for y, cy in apply_element(x, w).items():
            out[y] = out.get(y, 0j) + cy * cw
    return {pt: c for pt, c in out.items() if c != 0}


def unitary_conjugation_check(x, n: int, sample_points) -> bool:
    """Whether the shift unitary implements the automorphism on samples:
    applying the n-shifted element equals conjugating the action by u^n."""
    xn = apply_alpha(x, n)
    for w in sample_points:
        lhs = apply_element(xn, w)
        inner = apply_element(x, shift_point(w, -n))
        rhs = {shift_point(z, n): c for z, c in inner.items()}
        if lhs != rhs:
            return False
    return True


def exact_operator(entries: dict) -> FiniteOperator:
    """The operator with these exact entries, (real, imaginary) pairs of
    Fractions, over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for z in entries.values() for x in z))
    return FiniteOperator({key: (int(re * den), int(im * den))
                           for key, (re, im) in entries.items()}, den)


def float_operator(entries: dict) -> FiniteOperator:
    """The operator whose exact entries are these floats' own values."""
    return exact_operator({key: (Fraction(z.real), Fraction(z.imag))
                           for key, z in entries.items()})


def exact_entries(t: FiniteOperator) -> dict:
    """t's entries as exact (real, imaginary) pairs of Fractions."""
    return {key: (Fraction(re, t.den), Fraction(im, t.den))
            for key, (re, im) in t.numerators.items()}


def float_entries(t: FiniteOperator) -> dict:
    """The nearest complex float of each of t's entries."""
    return {key: complex(re / t.den, im / t.den) for key, (re, im) in t.numerators.items()}


def split_point_full():
    # ...111|000...
    orb1 = FULL.q_set.orbits[0]
    orb0 = FULL.p_set.orbits[0]
    return HeteroclinicPoint(orb1, 0, 0, (), orb0, 0, 0)


def test_apply_diagonal_projection():
    a, _ = canonical_pair(FULL)
    w = split_point_full()
    assert apply_element(a, w) == {w: 1 + 0j}
    # a point outside the source cylinder maps to nothing
    outside = shift_point(w, 1)  # switch moved to -1, so a 0 sits at -1
    assert apply_element(a, outside) == {}


def test_apply_replaces_past():
    # replace the past "...1 1 0" by "...1 1 1"; the map needs one extra
    # window step so each piece has matching junction symbols
    orb1 = FULL.q_set.orbits[0]
    pieces = []
    for s in (0, 1):
        target = make_left_ray(FULL.sft, orb1, 0, 0, (s,), 1)
        source = make_left_ray(FULL.sft, orb1, 0, -1, (0, s), 1)
        pieces.append((1, StableBisection(target, source)))
    e = element("stable", pieces)
    orb0 = FULL.p_set.orbits[0]
    w = HeteroclinicPoint(orb1, 0, -1, (0,), orb0, 0, 0)  # ...110|000...
    out = apply_element(e, w)
    assert out == {split_point_full(): 1 + 0j}


def test_apply_unstable_replaces_future():
    _, b = canonical_pair(FULL)
    w = split_point_full()
    assert apply_element(b, w) == {w: 1 + 0j}


def test_representation_is_multiplicative():
    rng = random.Random(9)
    sys = GOLDEN
    a1, _ = mixed_pair(sys)
    a2 = offdiagonal_stable(sys)
    prod = convolve(a1, a2)
    pts = enumerate_heteroclinic(sys.sft, sys.p_set, sys.q_set, 4)
    sample = rng.sample(pts, 12)
    for w in sample:
        direct = apply_element(prod, w)
        staged = apply_to_combination(a1, apply_element(a2, w))
        assert direct == staged


def test_unitary_conjugation():
    sys = FULL
    a, b = canonical_pair(sys)
    pts = enumerate_heteroclinic(sys.sft, sys.p_set, sys.q_set, 3)[:10]
    assert unitary_conjugation_check(a, 0, pts)
    assert unitary_conjugation_check(a, 1, pts)
    assert unitary_conjugation_check(b, 2, pts)
    assert unitary_conjugation_check(b, -1, pts)
    off = offdiagonal_stable(GOLDEN)
    gpts = enumerate_heteroclinic(GOLDEN.sft, GOLDEN.p_set, GOLDEN.q_set, 3)[:10]
    assert unitary_conjugation_check(off, -2, gpts)


def test_product_operator_rank_one():
    a, b = canonical_pair(FULL)
    t_ab = product_operator(a, b, FULL.perron, "ab")
    w = split_point_full()
    assert float_entries(t_ab) == {(w, w): 1 + 0j}
    assert t_ab.rank() == 1
    t_ba = product_operator(a, b, FULL.perron, "ba")
    assert t_ba.rank() == 1


def test_product_operator_conflicting_constraints_vanish():
    a, b = canonical_pair(FULL)
    a_shifted = apply_alpha(a, -1)  # past constraint now reaches index 0
    assert product_operator(a_shifted, b, FULL.perron, "ab").is_zero
    assert product_operator(a_shifted, b, FULL.perron, "ba").is_zero


def test_product_operator_window_cap(monkeypatch):
    from sfttrace import operators

    a, b = canonical_pair(FULL)
    with pytest.raises(WindowOverflow):
        product_operator(apply_alpha(a, 40), b, FULL.perron, "ab")
    # a stable window n against an unstable window m leaves a free bridge
    # of max(m - n, 0) symbols in both orders; the cap applies to exactly that
    for cap in (0, 2):
        monkeypatch.setattr(operators, "PRODUCT_WINDOW_CAP", cap)
        for shift in range(-3, cap + 3):
            for order in ("ab", "ba"):
                if shift > cap:
                    with pytest.raises(WindowOverflow):
                        product_operator(apply_alpha(a, shift), b, FULL.perron, order)
                else:
                    product_operator(apply_alpha(a, shift), b, FULL.perron, order)


def test_product_operator_symbol_budget(monkeypatch):
    # the budget counts every pair's columns exactly, times their steps,
    # before any column is built
    from sfttrace import operators

    a, b = canonical_pair(GOLDEN)
    a = apply_alpha(a, 5)  # stable window -5 against unstable window 0
    symbols = count_paths(GOLDEN.sft, 0, 0, 6) * 6
    for order in ("ab", "ba"):
        monkeypatch.setattr(operators, "ENUMERATION_CAP", symbols)
        assert len(product_operator(a, b, GOLDEN.perron, order).numerators) == 13
        monkeypatch.setattr(operators, "ENUMERATION_CAP", symbols - 1)
        monkeypatch.setattr(operators, "bridge_words", None)  # nothing is enumerated
        with pytest.raises(WindowOverflow, match=f"need {symbols} bridge symbols"):
            product_operator(a, b, GOLDEN.perron, order)
        monkeypatch.undo()


@pytest.mark.parametrize("sys", [FULL, GOLDEN, THREE], ids=lambda s: s.name)
def test_product_operator_columns_are_complete(sys):
    # every basis point whose image under the product is nonzero is a column
    # of product_operator, with exactly that image; every other point's
    # image is empty.  The enumeration window covers every column (checked).
    rng = random.Random(sum(map(ord, sys.name)))
    for _ in range(10):
        a = apply_alpha(random_element(rng, sys, "stable", 2), rng.randrange(-1, 2))
        b = apply_alpha(random_element(rng, sys, "unstable", 2), rng.randrange(-1, 2))
        basis = enumerate_heteroclinic(sys.sft, sys.p_set, sys.q_set,
                                       required_window(a, b, 0))
        for order, first, second in (("ab", b, a), ("ba", a, b)):
            columns: dict = {}
            for (v, w), c in float_entries(product_operator(a, b, sys.perron, order)).items():
                columns.setdefault(w, {})[v] = c
            assert set(columns) <= set(basis)
            for w in basis:
                image = apply_to_combination(second, apply_element(first, w))
                assert columns.get(w, {}) == image, (order, w)


def test_operator_norm_examples():
    a, b = canonical_pair(FULL)
    t = product_operator(a, b, FULL.perron, "ab")
    assert operator_norm(t) == pytest.approx(1.0, abs=1e-10)
    assert operator_norm(FiniteOperator({}, 1)) == 0.0
    w = split_point_full()
    v = shift_point(w, 1)
    assert operator_norm(float_operator({(w, v): 2 + 0j})) == pytest.approx(2.0, abs=1e-10)


def dense_rank(entries) -> int:
    """Rank over Q(i) by dense Gauss-Jordan elimination, each entry an
    exact (real, imaginary) pair of Fractions."""
    rows = sorted({r for r, _ in entries})
    cols = sorted({c for _, c in entries})
    zero = (Fraction(0), Fraction(0))
    mat = [[(Fraction(entries[r, c].real), Fraction(entries[r, c].imag))
            if (r, c) in entries else zero for c in cols] for r in rows]

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(rows)) if mat[i][j] != zero), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr, pi = mat[rank][j]
        norm = pr * pr + pi * pi
        inverse = (pr / norm, -pi / norm)
        mat[rank] = [mul(x, inverse) for x in mat[rank]]
        for i in range(len(rows)):
            if i != rank and mat[i][j] != zero:
                f = mat[i][j]
                mat[i] = [(x[0] - y[0], x[1] - y[1])
                          for x, y in zip(mat[i], (mul(f, z) for z in mat[rank]))]
        rank += 1
    return rank


def random_gaussian_dyadic(rng, bound=8):
    return complex(rng.randint(-bound, bound), rng.randint(-bound, bound))


def test_rank_is_exact_on_sparse_dyadic_matrices():
    rng = random.Random(11)
    for trial in range(60):
        n_rows, n_cols = rng.randrange(1, 9), rng.randrange(1, 9)
        scale_r = [2.0 ** rng.randint(-25, 25) for _ in range(n_rows)]
        scale_c = [2.0 ** rng.randint(-25, 25) for _ in range(n_cols)]
        if trial % 2:
            # a product of thin Gaussian-integer matrices: rank at most `inner`
            inner = rng.randrange(1, 4)
            left = [[random_gaussian_dyadic(rng) for _ in range(inner)] for _ in range(n_rows)]
            right = [[random_gaussian_dyadic(rng) if rng.random() < 0.7 else 0j
                      for _ in range(n_cols)] for _ in range(inner)]
            cells = {(r, c): sum(left[r][i] * right[i][c] for i in range(inner))
                     for r in range(n_rows) for c in range(n_cols)}
        else:
            cells = {(r, c): random_gaussian_dyadic(rng)
                     for r in range(n_rows) for c in range(n_cols) if rng.random() < 0.4}
        # row and column powers of two, 2^-50 to 2^50, keep every entry exact
        entries = {(r, c): z * scale_r[r] * scale_c[c] for (r, c), z in cells.items() if z}
        t = float_operator(entries)
        assert t.rank() == (dense_rank(entries) if entries else 0)
        if trial % 2:
            assert t.rank() <= inner


def test_rank_of_a_difference_that_cancels():
    t = float_operator({(0, 0): 1 + 1j, (0, 1): 2j, (1, 0): 0.5, (1, 1): 0.5 + 0.5j})
    assert t.rank() == 1  # row 0 is (1 + 1j) times row 1
    assert (t - t).rank() == 0 and (t - t).is_zero
    assert (t - float_operator({(1, 1): 0.5 + 0.5j})).rank() == 2
    # over the denominators 2, 128 and 3: each difference is the entrywise
    # one, without the entries that cancel
    over = {2: FiniteOperator({(0, 0): (3, 1), (1, 0): (2, 0), (1, 1): (1, -1)}, 2),
            128: FiniteOperator({(0, 0): (192, 64), (1, 0): (128, 0), (0, 1): (1, 3)}, 128),
            3: FiniteOperator({(1, 0): (3, 0), (1, 1): (1, 2), (2, 2): (-4, 0)}, 3)}
    for x in over.values():
        for y in over.values():
            ex, ey = exact_entries(x), exact_entries(y)
            expected = {}
            for key in ex.keys() | ey.keys():
                (xr, xi), (yr, yi) = ex.get(key, (0, 0)), ey.get(key, (0, 0))
                if (xr, xi) != (yr, yi):
                    expected[key] = (xr - yr, xi - yi)
            assert exact_entries(x - y) == expected
    assert set((over[2] - over[128]).numerators) == {(0, 1), (1, 1)}
    assert (over[2] - over[128]).rank() == 1 and (over[3] - over[2]).rank() == 3


def test_an_entry_beyond_the_float_range_raises():
    # 2^1024 - 2^970 is halfway between the largest float and 2^1024: an
    # entry raises exactly when its float overflows, in either part
    half = 2 ** 1024 - 2 ** 970
    outcomes = set()
    for den in (1, 2 ** 60, 3 * 2 ** 10):
        for n in (half * den - 1, half * den, half * den + 1):
            try:
                float(Fraction(n, den))
                overflows = False
            except OverflowError:
                overflows = True
            outcomes.add(overflows)
            for z in ((n, 1), (-n, 1), (1, n), (1, -n)):
                if overflows:
                    with pytest.raises(NonFiniteCoefficient,
                                       match="^an operator entry exceeds the float range$"):
                        FiniteOperator({(0, 0): (1, 0), (0, 1): z}, den)
                else:
                    assert FiniteOperator({(0, 0): (1, 0), (0, 1): z}, den).den == den
    assert outcomes == {False, True}


@pytest.mark.parametrize("scale", [2.0 ** 60, 2.0 ** -40, 1e-8, 2.0 ** -60])
@pytest.mark.parametrize("pair", ["canonical", "mixed"])
def test_product_rank_and_pattern_do_not_depend_on_scale(scale, pair):
    for sys in (FULL, GOLDEN, THREE):
        a, b = (canonical_pair if pair == "canonical" else mixed_pair)(sys)
        a = apply_alpha(a, 2)
        scaled_a = element("stable", [(c * scale, t) for c, t in a.terms])
        scaled_b = element("unstable", [(c * scale, t) for c, t in b.terms])
        for order in ("ab", "ba"):
            t = product_operator(a, b, sys.perron, order)
            u = product_operator(scaled_a, scaled_b, sys.perron, order)
            assert set(u.numerators) == set(t.numerators)
            assert u.rank() == t.rank() > 0


def test_product_rank_is_exact_for_inexact_coefficient_products():
    # two stable terms from one source and two unstable terms into one
    # target, all at window 0: both products are the outer product of the
    # coefficients, rank 1, though the rounded products are not proportional
    rng = random.Random(7)

    def rays_around(make_ray, orbit, bisection):
        """A shared ray and two other rays that each form a term with it."""
        shared, others = make_ray(rng, FULL.sft, orbit, 0), []
        while len(others) < 2:
            ray = make_ray(rng, FULL.sft, orbit, 0)
            try:
                bisection(ray, shared)
            except BisectionError:
                continue
            if ray != shared and ray not in others:
                others.append(ray)
        return shared, others

    cs, ds = (0.1, 0.3), (0.7, 0.9 + 0.1j)
    source, targets = rays_around(random_left_ray, FULL.q_set.orbits[0], StableBisection)
    target, sources = rays_around(random_right_ray, FULL.p_set.orbits[0],
                                  lambda ray, shared: UnstableBisection(shared, ray))
    a = element("stable", [(c, StableBisection(t, source)) for c, t in zip(cs, targets)])
    b = element("unstable", [(d, UnstableBisection(target, s)) for d, s in zip(ds, sources)])
    products = {(Fraction(c) * Fraction(d.real), Fraction(c) * Fraction(d.imag))
                for c in cs for d in ds}
    for order in ("ab", "ba"):
        t = product_operator(a, b, FULL.perron, order)
        assert set(exact_entries(t).values()) == products and len(t.numerators) == 4
        assert t.rank() == 1
        assert float_operator(float_entries(t)).rank() == 2  # the nearest floats


def test_zero_entries_are_dropped():
    # an explicit zero entry is no entry: it neither becomes a pivot row nor
    # makes the operator nonzero
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    t = exact_operator({(0, 0): zero, (1, 0): one})
    assert t.rank() == 1
    assert exact_entries(t) == {(1, 0): one} and float_entries(t) == {(1, 0): 1 + 0j}
    lone = exact_operator({(0, 0): zero})
    assert lone.is_zero and lone.rank() == 0 and operator_norm(lone) == 0.0


def test_operator_norm_of_one_entry_is_its_modulus():
    for z in (2 + 0j, -3 + 4j, 0.1 + 0.7j, 1e-300j, 1e300 + 1e300j, 0.5 - 0.25j):
        assert operator_norm(float_operator({(0, 1): z})) == abs(z)


def test_operator_norm_of_diagonal_and_rank_one_operators():
    rng = random.Random(3)
    for _ in range(30):
        diag = {(i, i): complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for i in range(8)}
        assert operator_norm(float_operator(diag)) == max(map(abs, diag.values()))
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randrange(1, 9))]
        y = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randrange(1, 9))]
        outer = float_operator({(i, j): xi * yj.conjugate()
                                for i, xi in enumerate(x) for j, yj in enumerate(y)})
        expected = math.hypot(*map(abs, x)) * math.hypot(*map(abs, y))
        assert operator_norm(outer) == pytest.approx(expected, rel=1e-12)


def test_operator_norm_lies_between_column_norm_and_norm_bound():
    rng = random.Random(4)
    for _ in range(100):
        n_rows, n_cols = rng.randrange(1, 10), rng.randrange(1, 10)
        entries = {(r, c): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for r in range(n_rows) for c in range(n_cols) if rng.random() < 0.5}
        if not entries:
            continue
        row_sums: dict = {}
        col_sums: dict = {}
        columns: dict = {}
        for (r, c), z in entries.items():
            row_sums[r] = row_sums.get(r, 0.0) + abs(z)
            col_sums[c] = col_sums.get(c, 0.0) + abs(z)
            columns.setdefault(c, []).append(abs(z))
        bound = math.sqrt(max(col_sums.values()) * max(row_sums.values()))
        norm = operator_norm(float_operator(entries))
        # the floor is exact; the bound and the estimate are both rounded
        assert max(math.hypot(*col) for col in columns.values()) <= norm <= bound * (1 + 1e-12)


def test_operator_norm_sees_every_block():
    # a block whose top singular vector is orthogonal to all-ones, beside a
    # smaller one: the norm is the first block's sqrt(2)
    t = float_operator({(0, 0): 1 + 0j, (0, 1): -1 + 0j, (1, 2): 1.25 + 0j})
    assert operator_norm(t) == math.sqrt(2)


def linked_blocks(t: FiniteOperator) -> list:
    """The entries of t, split into the blocks that they link: (rows,
    columns, entries) for each, found by merging sets."""
    groups: list = []
    for (r, c), z in exact_entries(t).items():
        block = ({r}, {c}, {(r, c): z})
        for g in [g for g in groups if r in g[0] or c in g[1]]:
            block[0].update(g[0])
            block[1].update(g[1])
            block[2].update(g[2])
            groups.remove(g)
        groups.append(block)
    return groups


def real_gram(rows, cols, entries) -> tuple:
    """The Gram matrix G = BB* of the block over `rows`, embedded as the
    real symmetric [[Re G, -Im G], [Im G, Re G]], whose eigenvalues are G's,
    each twice: (integer matrix, its denominator)."""
    zero = (Fraction(0), Fraction(0))
    re = [[sum(entries.get((i, c), zero)[0] * entries.get((j, c), zero)[0]
               + entries.get((i, c), zero)[1] * entries.get((j, c), zero)[1] for c in cols)
           for j in rows] for i in rows]
    im = [[sum(entries.get((i, c), zero)[1] * entries.get((j, c), zero)[0]
               - entries.get((i, c), zero)[0] * entries.get((j, c), zero)[1] for c in cols)
           for j in rows] for i in rows]
    real = [x + [-y for y in v] for x, v in zip(re, im)] + [v + x for x, v in zip(re, im)]
    den = math.lcm(*(x.denominator for row in real for x in row))
    return [[int(x * den) for x in row] for row in real], den


def characteristic_polynomial(a) -> list:
    """det(xI - a) of an integer matrix, highest power first, by
    Faddeev-LeVerrier; every division is exact."""
    n = len(a)
    coeffs, m = [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        total = -sum(a[i][l] * m[l][i] for i in range(n) for l in range(n))
        assert total % k == 0
        coeffs.append(total // k)
    return coeffs


def reference_norm(t: FiniteOperator) -> float:
    """‖T‖ by a route of its own: per block, the largest root of the
    characteristic polynomial of the real Gram matrix, by Newton's method in
    60-digit Decimal.

    Every root is real and doubled, so the step 2p/p' from above the
    largest root (half the trace is above it) goes down to it without
    passing it.  The float of its square root is the block's norm.
    """
    best = 0.0
    for rows, cols, entries in linked_blocks(t):
        if len(rows) > len(cols):  # the transpose has the same norm
            rows, cols, entries = cols, rows, {(c, r): z for (r, c), z in entries.items()}
        gram, den = real_gram(list(rows), cols, entries)
        poly = characteristic_polynomial(gram)
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(sum(row[i] for i, row in enumerate(gram))) / 2
            for _ in range(400):
                value = slope = Decimal(0)
                for c in poly:
                    value, slope = value * x + c, slope * x + value
                if value <= 0 or x - 2 * value / slope >= x:
                    break
                x -= 2 * value / slope
            best = max(best, float((x / den).sqrt()))
    return best


def test_operator_norms_of_fixture_products_are_correctly_rounded():
    # both products of each fixture system's canonical and mixed pairs and
    # of six seeded random three-term pairs, with the stable element at
    # alpha^-n for n = 0..5, as `vanishing_product_check` builds them: each
    # norm is the float nearest ‖T‖ of the reference route
    checked = 0
    for sys in (FULL, GOLDEN, THREE):
        rng = random.Random(7)
        pairs = [canonical_pair(sys), mixed_pair(sys)]
        pairs += [(random_element(rng, sys, "stable", 3), random_element(rng, sys, "unstable", 3))
                  for _ in range(6)]
        for a, b in pairs:
            for n in range(6):
                for order in ("ab", "ba"):
                    t = product_operator(apply_alpha(a, -n), b, sys.perron, order)
                    assert operator_norm(t) == reference_norm(t), (sys.name, n, order)
                    checked += not t.is_zero
    assert checked == 198


def test_operator_norm_rounds_a_tie_to_even_and_raises_past_the_float_range():
    # [[1, h], [h, 1]] with h = 2^-53 has norm 1 + h, halfway between 1.0 and
    # the next float up, whose last bit is odd; with 1 + 2h on the diagonal
    # the norm 1 + 3h is halfway between two floats, the even one above
    h = 2.0 ** -53
    assert operator_norm(float_operator({(0, 0): 1, (0, 1): h, (1, 0): h, (1, 1): 1})) == 1.0
    up = float_operator({(0, 0): 1 + 2 * h, (0, 1): h, (1, 0): h, (1, 1): 1 + 2 * h})
    assert operator_norm(up) == 1 + 4 * h
    # sqrt(2) times the least subnormal rounds down to it
    assert operator_norm(float_operator({(0, 0): 5e-324, (0, 1): 5e-324j})) == 5e-324
    # every entry is a float, but the norm 2.1e308 of the row and of the
    # block is not
    row = float_operator({(0, 0): 1.5e308, (0, 1): 1.5e308j})
    with pytest.raises(NonFiniteCoefficient, match="an operator norm exceeds the float range"):
        operator_norm(row)
    with pytest.raises(NonFiniteCoefficient, match="an operator norm exceeds the float range"):
        operator_norm(float_operator({(0, 0): 1.5e308, (0, 1): 1.5e308,
                                      (1, 0): 1.5e308, (1, 1): -1.5e308}))


def test_trace_product_full_shift():
    a, b = canonical_pair(FULL)
    tr = trace_product(a, b, 3, FULL.perron)
    assert tr.as_int() == 64
    assert count_paths(FULL.sft, 1, 0, 7) == 64


def test_trace_product_golden():
    a, b = canonical_pair(GOLDEN)
    assert trace_product(a, b, 1, GOLDEN.perron).as_int() == 3
    for k in range(0, 12):
        assert trace_product(a, b, k, GOLDEN.perron).as_int() == fib(2 * k + 2)


def test_trace_product_offdiagonal_vanishes():
    a = offdiagonal_stable(GOLDEN)
    _, b = canonical_pair(GOLDEN)
    for k in range(0, 10):
        tr, diag = trace_product_detail(a, b, k, GOLDEN.perron)
        assert tr.as_int() == 0
        assert diag.offdiag_fixed_points == 0


def test_trace_product_matches_operator_diagonal():
    for sys in (FULL, GOLDEN, THREE):
        for name, a, b in fixture_pairs(sys):
            for k in range(0, 3):
                tr = trace_product(a, b, k, sys.perron)
                op = product_operator(
                    apply_alpha(a, k), apply_alpha(b, -k), sys.perron, "ab"
                )
                diag = [z for (row, col), z in exact_entries(op).items() if row == col]
                assert tr.exact_total() == (sum(re for re, _ in diag),
                                            sum(im for _, im in diag)), (sys.name, name, k)


def test_trace_product_linear():
    sys = GOLDEN
    a1, b = mixed_pair(sys)
    a2 = offdiagonal_stable(sys)
    k = 2
    lhs = trace_product(a1 + a2, b, k, sys.perron).exact_total()
    t1 = trace_product(a1, b, k, sys.perron).exact_total()
    t2 = trace_product(a2, b, k, sys.perron).exact_total()
    assert lhs == (t1[0] + t2[0], t1[1] + t2[1])


def test_oracle_examples():
    a, b = canonical_pair(FULL)
    assert trace_product_oracle(a, b, 2, 6, FULL.perron, FULL.p_set, FULL.q_set).as_int() == 16
    ag, bg = canonical_pair(GOLDEN)
    assert trace_product_oracle(ag, bg, 1, 4, GOLDEN.perron, GOLDEN.p_set, GOLDEN.q_set).as_int() == 3
    off = offdiagonal_stable(GOLDEN)
    assert trace_product_oracle(off, bg, 5, 10, GOLDEN.perron, GOLDEN.p_set, GOLDEN.q_set).as_int() == 0


def test_oracle_window_guard():
    a, b = canonical_pair(FULL)
    with pytest.raises(WindowTooSmall):
        trace_product_oracle(a, b, 5, 2, FULL.perron, FULL.p_set, FULL.q_set)
    assert required_window(a, b, 5) == 5


def test_oracle_window_guard_on_a_lopsided_pair():
    # at k = 4 the off-diagonal pair pins [-6, 4): window 5 covers the
    # unstable side but not the stable term's splice at -6
    off, (_, b) = offdiagonal_stable(THREE), canonical_pair(THREE)
    assert required_window(off, b, 4) == 6
    with pytest.raises(WindowTooSmall, match="need window >= 6, got 5"):
        trace_product_oracle(off, b, 4, 5, THREE.perron, THREE.p_set, THREE.q_set)


def test_oracle_enumerates_the_span_widened_by_the_slack(monkeypatch):
    # the oracle enumerates the sequences periodic outside the span of its
    # conjugated terms' windows and splices, widened on both sides by
    # window - required_window: a lopsided pair's run is shorter than
    # 2 * window, a symmetric pair's is not
    from sfttrace import rep

    lengths = []

    def spy(sft, p_set, q_set, length):
        lengths.append(length)
        return asymptotic_sequences(sft, p_set, q_set, length)

    monkeypatch.setattr(rep, "asymptotic_sequences", spy)

    def run_length(sys, a, b, k, window):
        lengths.clear()
        trace_product_oracle(a, b, k, window, sys.perron, sys.p_set, sys.q_set)
        (length,) = lengths
        return length

    off, (_, b) = offdiagonal_stable(THREE), canonical_pair(THREE)
    req = required_window(off, b, 4)
    assert [run_length(THREE, off, b, 4, w) for w in (req, req + 1)] == [10, 12]
    # at k = 0 the span is [-2, 0): the detour's two symbols
    assert run_length(THREE, off, b, 0, required_window(off, b, 0)) == 2
    for sys in (FULL, GOLDEN, THREE):
        a, b = canonical_pair(sys)
        for k in range(5):
            req = required_window(a, b, k)
            assert run_length(sys, a, b, k, req) == 2 * req
            assert run_length(sys, a, b, k, req + 1) == 2 * req + 2


@pytest.mark.parametrize("sys", [FULL, GOLDEN, THREE], ids=lambda s: s.name)
def test_oracle_equivalence(sys):
    # the symbolic route and the basis-enumeration route agree exactly
    for name, a, b in fixture_pairs(sys):
        for k in range(0, 5):
            sym = trace_product(a, b, k, sys.perron)
            brute = trace_product_oracle(a, b, k, required_window(a, b, k), sys.perron,
                                         sys.p_set, sys.q_set)
            assert sym == brute, (sys.name, name, k)


def test_oracle_pairs_digest():
    # the pairs the oracle returns, each coefficient with the signs of its
    # zeros, pinned by the sha256 of their reprs: every fixture pair at
    # k <= 4 at its required window, and 30 seeded random pairs of 1 to 3
    # terms per system at k <= 3, wherever the required window is at most
    # 6, at that window and at one wider
    cases = []
    for sys in (FULL, GOLDEN, THREE):
        cases += [(sys, a, b, k, required_window(a, b, k))
                  for _, a, b in fixture_pairs(sys) for k in range(5)]
        rng = random.Random(27)
        for _ in range(30):
            a = random_element(rng, sys, "stable", rng.randint(1, 3))
            b = random_element(rng, sys, "unstable", rng.randint(1, 3))
            for k in range(4):
                req = required_window(a, b, k)
                cases += [(sys, a, b, k, w) for w in (req, req + 1) if req <= 6]
    digest = hashlib.sha256()
    for sys, a, b, k, w in cases:
        pairs = trace_product_oracle(a, b, k, w, sys.perron, sys.p_set, sys.q_set).pairs
        digest.update(repr(pairs).encode() + b"\n")
    assert len(cases) == 651
    assert digest.hexdigest() == (
        "b331b3ea501a9fc993cd369d21d52a137a7ab9e614e349c5bb4989fda9c16063")


def test_scaled_sequence_full_shift_exact():
    a, b = canonical_pair(FULL)
    report = scaled_trace_sequence(a, b, range(0, 12), FULL.perron)
    assert report.target == pytest.approx(1.0, abs=1e-12)
    for row in report.rows:
        assert row.scaled == pytest.approx(1.0, abs=1e-12)
        assert row.abs_err <= 1e-12


def test_scaled_sequence_golden_closed_form():
    a, b = canonical_pair(GOLDEN)
    report = scaled_trace_sequence(a, b, range(0, 30), GOLDEN.perron)
    assert report.target == pytest.approx(PHI ** 2 / math.sqrt(5), abs=1e-10)
    for row in report.rows:
        assert row.trace.as_int() == fib(2 * row.k + 2)
        closed = PHI ** (-4 * row.k - 2) / math.sqrt(5)
        assert row.abs_err == pytest.approx(closed, abs=1e-12)
    # scaled values increase toward the target (up to float rounding)
    scaled = [row.scaled.real for row in report.rows]
    assert all(s2 >= s1 - 1e-13 for s1, s2 in zip(scaled, scaled[1:]))


def test_fitted_decay_rate_is_the_exact_least_squares_slope():
    # two rows of nonzero error are the fewest that are fitted
    for sys, (a, b), kmax in ((GOLDEN, canonical_pair(GOLDEN), 15),
                              (THREE, mixed_pair(THREE), 20),
                              (GOLDEN, canonical_pair(GOLDEN), 1)):
        report = scaled_trace_sequence(a, b, range(0, kmax + 1), sys.perron)
        pts = [(Fraction(r.k), Fraction(math.log(r.abs_err))) for r in report.rows
               if r.abs_err > 0]
        assert len(pts) == kmax + 1
        kbar = sum(k for k, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        slope = (sum((k - kbar) * (y - ybar) for k, y in pts)
                 / sum((k - kbar) ** 2 for k, _ in pts))
        assert report.fitted_decay_rate() == pytest.approx(math.exp(slope), rel=1e-12)


def test_scaled_sequence_empty_range():
    a, b = canonical_pair(FULL)
    report = scaled_trace_sequence(a, b, [], FULL.perron)
    assert report.rows == ()


def test_scaled_sequence_matches_cold_counts():
    # the sweep carries each system's path-count memo from k to k (lengths
    # up to 2k + 5 pass the memo's row window); every reference trace
    # counts on an equal system built afresh, whose memo starts cold
    from sfttrace.fixtures import random_element
    from sfttrace.perron import PerronData
    from sfttrace.sft import Sft

    sys = three_symbol()
    rng = random.Random(31)
    a, b = (random_element(rng, sys, side, 6) for side in ("stable", "unstable"))
    # add the diagonal of every term: only diagonal pairs count bridges
    a, b = (element(x.side, list(x.terms) + [(c, type(t)(t.source, t.source))
                                             for c, t in x.terms])
            for x in (a, b))
    report = scaled_trace_sequence(a, b, range(0, 41), sys.perron)
    assert report.rows[-1].trace.pairs
    for row in report.rows:
        p = sys.perron
        cold = PerronData(Sft(sys.sft.trans, sys.sft.labels), p.lam, p.v, p.u, p.residual)
        assert trace_product(a, b, row.k, cold).pairs == row.trace.pairs


def test_trace_product_period_two_orbits():
    # orbit sets built on the 2-cycle orbit of the golden mean: phases move
    # under conjugation, the bridge formula and the oracle must still agree
    from sfttrace.algebra import diagonal
    from sfttrace.points import make_orbit_set, periodic_left_ray, periodic_right_ray

    sft = GOLDEN.sft
    p = GOLDEN.perron
    cyc = make_orbit_set([[0, 1]], sft)
    for lphase in (0, 1):
        for rphase in (0, 1):
            a = diagonal("stable", periodic_left_ray(sft, cyc.orbits[0], 0, lphase))
            b = diagonal("unstable", periodic_right_ray(sft, cyc.orbits[0], 0, rphase))
            for k in range(0, 4):
                sym = trace_product(a, b, k, p)
                expect = count_paths(sft, cyc.orbits[0].word[lphase],
                                     cyc.orbits[0].word[rphase], 2 * k + 1)
                assert sym.as_int() == expect
                brute = trace_product_oracle(a, b, k, required_window(a, b, k), p, cyc, cyc)
                assert sym == brute


def test_enumeration_additive_over_orbit_sets():
    from sfttrace.points import make_orbit_set

    sft = FULL.sft
    q = FULL.q_set
    p_single = FULL.p_set
    p_cycle = make_orbit_set([[0, 1]], sft)
    p_both = make_orbit_set([[0], [0, 1]], sft)
    for w in range(0, 4):
        n_single = len(enumerate_heteroclinic(sft, p_single, q, w))
        n_cycle = len(enumerate_heteroclinic(sft, p_cycle, q, w))
        n_both = len(enumerate_heteroclinic(sft, p_both, q, w))
        assert n_both == n_single + n_cycle


def test_oracle_equivalence_random_elements():
    # seeded random elements, not just shipped fixtures: the symbolic trace
    # must match the basis enumeration exactly in every regime
    import random as _random

    from sfttrace.fixtures import random_element

    rng = _random.Random(77)
    for _ in range(5):
        a = random_element(rng, GOLDEN, "stable", 2)
        b = random_element(rng, GOLDEN, "unstable", 2)
        for k in range(0, 4):
            assert trace_product(a, b, k, GOLDEN.perron) == trace_product_oracle(
                a, b, k, required_window(a, b, k), GOLDEN.perron, GOLDEN.p_set, GOLDEN.q_set
            )


def _rebuilt_terms(x):
    """The terms of x given three other ways: in reverse order, with the
    first coefficient split into two halves, and with an extra term whose
    coefficient is zero."""
    (c, t), *rest = x.terms
    return [x.terms[::-1], [(c / 2, t), *rest, (c / 2, t)], [(0.0, t.shift(10)), *x.terms]]


@pytest.mark.parametrize("sys, cases", [(FULL, 126), (GOLDEN, 137), (THREE, 122)],
                         ids=["full-2-shift", "golden-mean", "three-symbol"])
def test_elements_rebuilt_from_their_terms_are_equal_and_trace_as_the_oracle(sys, cases):
    # the constructor reduces any term list: a rebuilt element equals its
    # original, and its symbolic trace, which bisects on the terms' window
    # order, equals the oracle's
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        a = random_element(rng, sys, "stable", 3)
        b = random_element(rng, sys, "unstable", 3)
        rebuilt = [(AlgebraElement("stable", ta), AlgebraElement("unstable", tb))
                   for ta, tb in zip(_rebuilt_terms(a), _rebuilt_terms(b))]
        for ra, rb in rebuilt:
            assert ra == a and hash(ra) == hash(a) and rb == b and hash(rb) == hash(b)
        for k in range(3):
            req = required_window(a, b, k)
            if req <= 5:
                checked += 1
                oracle = trace_product_oracle(a, b, k, req, sys.perron, sys.p_set, sys.q_set)
                for ra, rb in rebuilt:
                    assert trace_product(ra, rb, k, sys.perron) == oracle
    assert checked == cases


def _orbits_up_to(sft, max_period):
    """Every admissible orbit of the system with period <= max_period."""
    orbits = set()
    for level in word_levels(sft, range(sft.n), max_period):
        for w in level:
            if not w or not sft.allowed(w[-1], w[0]):
                continue
            try:
                orbits.add(make_orbit(w, sft))
            except InadmissibleOrbit:  # not primitive
                pass
    return sorted(orbits, key=lambda o: (o.period, o.word))


@st.composite
def oracle_cases(draw):
    """A fixture or a random small mixing system with random orbit sets,
    seeded random elements, and k <= 3 with a small enumeration window."""
    if draw(st.booleans()):
        sys = draw(st.sampled_from([FULL, GOLDEN, THREE]))
    else:
        n = draw(st.integers(2, 3))
        cells = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
        trans = tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))
        if not (all(map(any, trans)) and all(map(any, zip(*trans)))):
            # the constructor refuses exactly the draws with a zero row or column
            with pytest.raises(ZeroRowOrColumn):
                Sft(trans)
            assume(False)
        sft = Sft(trans)
        assume(is_mixing(sft))
        orbits = _orbits_up_to(sft, 3)
        sets = st.lists(st.sampled_from(orbits), min_size=1, max_size=2, unique=True)
        p_set = PeriodicOrbitSet(tuple(draw(sets)))
        q_set = PeriodicOrbitSet(tuple(draw(sets)))
        sys = System("random", sft, p_set, q_set, compute_perron(sft))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = random_element(rng, sys, "stable", draw(st.integers(1, 3)))
    b = random_element(rng, sys, "unstable", draw(st.integers(1, 3)))
    k = draw(st.integers(0, 3))
    assume(required_window(a, b, k) <= 4)
    return sys, a, b, k


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(case=oracle_cases())
def test_oracle_equals_vector_by_vector_application(case):
    # the word-form oracle against the representation API applied to each
    # basis vector: the diagonal entry of a_k b_k at every point periodic
    # outside [-req, req) (their canonical windows can end past req)
    sys, a, b, k = case
    req = required_window(a, b, k)
    a_k, b_k = apply_alpha(a, k), apply_alpha(b, -k)
    basis = [HeteroclinicPoint(left, left_phase, -req, middle, right, right_phase, req)
             for left, left_phase, right, right_phase, middles
             in asymptotic_sequences(sys.sft, sys.p_set, sys.q_set, 2 * req)
             for middle in middles]
    diagonal_entries = [
        (apply_to_combination(a_k, apply_element(b_k, w)).get(w, 0j), 1) for w in basis
    ]
    oracle = trace_product_oracle(a, b, k, req, sys.perron, sys.p_set, sys.q_set)
    assert oracle == ExactTrace.from_pairs(diagonal_entries)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(case=oracle_cases())
def test_oracle_equals_symbolic_trace(case):
    # the paper's check beyond the fixtures; a wider window enumerates more
    # points, none of which contributes
    sys, a, b, k = case
    req = required_window(a, b, k)
    oracle = [trace_product_oracle(a, b, k, w, sys.perron, sys.p_set, sys.q_set)
              for w in (req, req + 1)]
    assert trace_product(a, b, k, sys.perron) == oracle[0] == oracle[1]


@pytest.mark.parametrize("sys, q_word, p_word", [(FULL, [0], [0, 1]), (GOLDEN, [0, 1], [0])],
                         ids=["full-shift", "golden-mean"])
def test_oracle_counts_points_whose_junction_slides_past_the_window(sys, q_word, p_word):
    # ...000|0101... is periodic outside [0, 0) but its canonical window is
    # [1, 1]: the junction slides right while the two patterns agree
    from sfttrace.points import make_orbit_set, periodic_right_ray

    q_set, p_set = make_orbit_set([q_word], sys.sft), make_orbit_set([p_word], sys.sft)
    q_orbit, p_orbit = q_set.orbits[0], p_set.orbits[0]
    for lphase in range(q_orbit.period):
        for rphase in range(p_orbit.period):
            a = diagonal("stable", periodic_left_ray(sys.sft, q_orbit, 0, lphase))
            b = diagonal("unstable", periodic_right_ray(sys.sft, p_orbit, 0, rphase))
            for k in range(4):
                sym = trace_product(a, b, k, sys.perron)
                assert sym.as_int() == count_paths(sys.sft, q_orbit.word[lphase],
                                                   p_orbit.word[rphase], 2 * k + 1)
                assert sym == trace_product_oracle(a, b, k, required_window(a, b, k),
                                                   sys.perron, p_set, q_set), (lphase, rphase, k)


def test_oracle_calls_no_symbolic_or_point_building_code(monkeypatch):
    # the oracle is an independent route: it must not reach time reversal,
    # path counts or the symbolic trace's term-pair table, nor build points
    # through splicing or canonicalization
    from sfttrace import algebra, points, rep, sft as sft_mod

    cases = [(sys, name, a, b, k, trace_product(a, b, k, sys.perron))
             for sys in (FULL, GOLDEN, THREE)
             for name, a, b in fixture_pairs(sys) for k in range(5)]
    banned = [points.reflect, sft_mod.count_paths, points.splice_point,
              points.HeteroclinicPoint, points.matches_past, points.matches_future,
              points.enumerate_heteroclinic, points.lowest_difference, points.rays_agree,
              algebra.agreement_bound, rep._pair_table, rep._PairTable,
              rep.trace_product_detail]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a banned function")

    for module in [m for key, m in sys_modules.items()
                   if key == "sfttrace" or key.startswith("sfttrace.")]:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in banned):
                monkeypatch.setattr(module, attr, forbidden)
    for sys, name, a, b, k, known in cases:
        oracle = trace_product_oracle(a, b, k, required_window(a, b, k),
                                      sys.perron, sys.p_set, sys.q_set)
        assert oracle == known, (sys.name, name, k)


def _package_imports(module: str) -> set:
    """The package modules that a module of sfttrace imports anywhere in
    its source, function bodies included."""
    import ast
    from pathlib import Path

    import sfttrace

    tree = ast.parse((Path(sfttrace.__file__).parent / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sfttrace"):
            out |= {node.module.partition(".")[2] or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2] for a in node.names
                    if a.name.startswith("sfttrace.")}
    return out


def test_oracle_module_imports_no_operator_or_driver_code():
    # `rep`, which holds the oracle, imports neither the finite operators nor
    # the drivers above it, so the oracle cannot reach `apply_element`,
    # `_apply_*` or `_moves`; `operators` imports no driver either
    assert not _package_imports("rep") & {"operators", "acceptance", "cli", "fixtures"}
    assert not _package_imports("operators") & {"acceptance", "cli"}


def test_oracle_orbit_tests_where_tails_agree_on_the_padded_window():
    # full 2-shift, P = Q = {(01), (001)}: the longest period, and so the
    # oracle's pad, is 3, and "010" lies on both orbits.  Each case has one
    # off-diagonal term whose source and target rays read "010" on the
    # 3 padded symbols next to the window but follow different orbits, and
    # one diagonal term on the other side.  The off-diagonal term moves a
    # point to another orbit, so nothing returns and every trace is 0; a
    # point on either orbit agrees with both of its rays on the whole
    # padded window, so only the orbit tests keep it from counting.
    sft = FULL.sft
    orbits = PeriodicOrbitSet((make_orbit((0, 1), sft), make_orbit((0, 0, 1), sft)))
    two, three = orbits.orbits
    sys = System("full-01-001", sft, orbits, orbits, FULL.perron)
    # reading ...010 below 0, and 010... from 0 on
    past_two, past_three = (periodic_left_ray(sft, o, 0, phase_at_end=0) for o in orbits.orbits)
    future_two = periodic_right_ray(sft, two, 0, phase_at_start=0)
    future_three = periodic_right_ray(sft, three, 0, phase_at_start=1)
    for ray in (past_two, past_three):
        assert [ray.symbol_at(x) for x in range(-3, 0)] == [0, 1, 0]
    for ray in (future_two, future_three):
        assert [ray.symbol_at(x) for x in range(3)] == [0, 1, 0]
    cases = {
        # the future orbit changes from (01) to (001)
        "future": (diagonal("stable", past_two),
                   element("unstable", [(1, UnstableBisection(future_three, future_two))])),
        # the past orbit changes from (01) to (001)
        "past": (element("stable", [(1, StableBisection(past_three, past_two))]),
                 diagonal("unstable", future_two)),
    }
    for name, (a, b) in cases.items():
        for k in range(3):
            req = required_window(a, b, k)
            assert req == k
            oracle = trace_product_oracle(a, b, k, req, sys.perron, sys.p_set, sys.q_set)
            assert oracle == trace_product(a, b, k, sys.perron) == ExactTrace(()), (name, k)


def _pairwise_trace(a, b, k, p):
    """Reference: every term pair visited one by one, in term-pair order,
    with the checks of the symbolic trace written out per pair."""
    pairs, bridge, overlap, offdiag, fixed = [], 0, 0, 0, 0
    for ca, e in a.terms:
        for cb, f in b.terms:
            n, m = e.window - k, f.window + k
            diag = e.is_diagonal and f.is_diagonal
            offdiag += not diag
            if m >= n:
                bridge += 1
                if diag:
                    pairs.append((ca * cb, count_paths(p.sft, e.source.terminal,
                                                       f.source.initial, m - n + 1)))
                continue
            overlap += 1
            alpha, beta = e.target.shift(k), e.source.shift(k)
            gamma, delta = f.target.shift(-k), f.source.shift(-k)
            if (alpha.truncate(m) == beta.truncate(m) and gamma.truncate(n) == delta.truncate(n)
                    and all(alpha.symbol_at(i) == delta.symbol_at(i) for i in range(m, n))
                    and all(gamma.symbol_at(i) == beta.symbol_at(i) for i in range(m, n))):
                pairs.append((ca * cb, 1))
                fixed += not diag
    return pairs, (bridge, overlap, offdiag, fixed)


def _sum_outcome(trace):
    """render, exact_total and as_int (or its error) of a trace."""
    try:
        whole = trace.as_int()
    except ValueError as exc:
        whole = str(exc)
    return trace.render(), trace.exact_total(), whole


def _outputs(trace, lam, k):
    """Everything a trace shows: its pairs, compared by value (a table-built
    row and `ExactTrace.from_pairs` may show a slot's coefficient with the
    other sign of a zero), the repr of `scaled(lam, k)`, and `_sum_outcome`."""
    return (trace.pairs, repr(trace.scaled(lam, k)), *_sum_outcome(trace))


@st.composite
def sweep_cases(draw):
    """Seeded multi-term elements on a fixture, some terms made diagonal, and
    an unsorted k_range with gaps on both sides of half the largest gap."""
    sys = draw(st.sampled_from([FULL, GOLDEN, THREE]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def draw_element(side):
        x = random_element(rng, sys, side, draw(st.integers(1, 8)))
        return element(side, [(c, type(t)(t.source, t.source) if rng.random() < 0.4 else t)
                              for c, t in x.terms])

    a, b = draw_element("stable"), draw_element("unstable")
    assume(a.terms and b.terms)
    half = max(e.window - f.window for _, e in a.terms for _, f in b.terms) // 2
    assume(half >= 0)
    low = draw(st.integers(0, half))
    high = draw(st.integers(half + 1, half + 8))
    ks = sorted({low, high, *draw(st.lists(st.integers(0, half + 8), max_size=6))})
    assume(len(ks) < ks[-1] - ks[0] + 1)
    k_range = draw(st.permutations(ks))
    assume(k_range != ks)
    return sys, a, b, k_range


def _offdiagonal_fixed_point_case():
    # full shift, ...000|010|000...: the off-diagonal pair's one roundtrip
    # fixed point is at k = 0, in the overlap regime, beside diagonal pairs
    sft, orbit = FULL.sft, make_orbit((0,))
    past = make_left_ray(sft, orbit, 0, 0, (0, 1, 0), 3)
    future = make_right_ray(sft, orbit, 0, 0, (0, 1, 0), 3)
    a = element("stable", [(1, StableBisection(periodic_left_ray(sft, orbit, 3), past)),
                           (0.5j, StableBisection(past, past))])
    b = element("unstable", [(1, UnstableBisection(future, periodic_right_ray(sft, orbit, 0))),
                             (-2, UnstableBisection(future, future))])
    return FULL, a, b, [5, 0, 2]


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(case=sweep_cases())
@example(case=_offdiagonal_fixed_point_case())
def test_sweep_rows_equal_single_k_traces(case):
    # every row of a sweep is the trace at that k, and both equal the pair
    # by pair reference: the same pairs by value, the same outputs and the
    # same diagnostics
    sys, a, b, k_range = case
    lam = sys.perron.lam
    report = scaled_trace_sequence(a, b, k_range, sys.perron)
    assert [row.k for row in report.rows] == sorted(k_range)
    for row in report.rows:
        trace, diagnostics = trace_product_detail(a, b, row.k, sys.perron)
        pairs, counts = _pairwise_trace(a, b, row.k, sys.perron)
        assert _outputs(row.trace, lam, row.k) == _outputs(trace, lam, row.k) \
            == _outputs(ExactTrace.from_pairs(pairs), lam, row.k)
        assert (diagnostics.bridge_pairs, diagnostics.overlap_pairs,
                diagnostics.offdiag_pairs, diagnostics.offdiag_fixed_points) == counts


def _many_terms_pair(seed, terms, diagonal):
    """Seeded three-symbol elements with `terms` distinct terms per side, the
    first `diagonal` drawn ones made diagonal (their source on both sides)."""
    rng = random.Random(seed)

    def draw(side):
        picked: dict = {}
        while len(picked) < terms:
            for c, t in random_element(rng, THREE, side, 1).terms:
                if len(picked) < diagonal:
                    t = type(t)(t.source, t.source)
                elif t.is_diagonal:
                    continue
                picked.setdefault(t, c)
        return element(side, [(c, t) for t, c in picked.items()])

    return draw("stable"), draw("unstable")


@pytest.mark.parametrize("seed", [0, 5])
def test_trace_counts_each_path_once_per_call(monkeypatch, seed):
    # every distinct (source, target, length) of the diagonal bridge pairs
    # is counted once per trace, through the public count_paths, and the
    # pairs and diagnostics are the pair by pair reference's
    from sfttrace import rep

    a, b = _many_terms_pair(seed, 24, 8)
    calls = []
    monkeypatch.setattr(rep, "count_paths", lambda *args: calls.append(args) or count_paths(*args))
    repeats = 0
    for k in range(41):
        calls.clear()
        trace, diagnostics = trace_product_detail(a, b, k, THREE.perron)
        keys = [(e.source.terminal, f.source.initial, f.window - e.window + 2 * k + 1)
                for _, e in a.terms if e.is_diagonal
                for _, f in b.terms if f.is_diagonal and e.window - f.window <= 2 * k]
        assert sorted(calls) == sorted((THREE.sft, *key) for key in set(keys)), k
        repeats += len(keys) - len(set(keys))
        pairs, counts = _pairwise_trace(a, b, k, THREE.perron)
        assert _outputs(trace, THREE.perron.lam, k) \
            == _outputs(ExactTrace.from_pairs(pairs), THREE.perron.lam, k)
        assert (diagnostics.bridge_pairs, diagnostics.overlap_pairs,
                diagnostics.offdiag_pairs, diagnostics.offdiag_fixed_points) == counts
    # the diagonal bridge pairs do repeat their path counts
    assert repeats > 0


def _pairwise_result(a, b, k, p):
    """(`_outputs`, diagnostics) of the pair by pair reference, or the error
    that `ExactTrace.from_pairs` raises, as "type: message"."""
    pairs, counts = _pairwise_trace(a, b, k, p)
    try:
        return _outputs(ExactTrace.from_pairs(pairs), p.lam, k), counts
    except NonFiniteCoefficient as exc:
        return f"{type(exc).__name__}: {exc}"


def _symbolic_result(a, b, k, p):
    """`_pairwise_result`'s shape for `trace_product_detail`."""
    try:
        trace, d = trace_product_detail(a, b, k, p)
    except NonFiniteCoefficient as exc:
        return f"{type(exc).__name__}: {exc}"
    return _outputs(trace, p.lam, k), (d.bridge_pairs, d.overlap_pairs, d.offdiag_pairs,
                                       d.offdiag_fixed_points)


def test_table_slot_shows_its_first_member_with_the_outputs_of_from_pairs():
    # on the full shift, pairs (0, 0) and (1, 1) have the products
    # (-1)(-2) = 2-0j and (1)(2) = 2+0j, equal but for the sign of a zero,
    # so they share one slot, which shows its first member, 2-0j.  At k = 0,
    # (0, 0) overlaps and its rays disagree at -1, so only the later pair
    # (1, 1) contributes, and the pair by pair reference shows 2+0j; from
    # k = 1 on both are bridge pairs.  Every output is the reference's
    sft, orbit = FULL.sft, make_orbit((0,))
    a = element("stable", [(-1, StableBisection(*[periodic_left_ray(sft, orbit, 0)] * 2)),
                           (1, StableBisection(*[periodic_left_ray(sft, orbit, 1)] * 2))])
    f0 = make_right_ray(sft, orbit, 0, -1, (1,), 0)
    b = element("unstable", [(-2, UnstableBisection(f0, f0)),
                             (2, UnstableBisection(*[periodic_right_ray(sft, orbit, 1)] * 2))])
    assert [c for c, _ in a.terms] == [-1, 1] and [c for c, _ in b.terms] == [-2, 2]
    for k in (0, 1, 2, 3, 60):
        result = _symbolic_result(a, b, k, FULL.perron)
        reference = _pairwise_result(a, b, k, FULL.perron)
        assert result == reference, k
        shown = repr(result[0][0])
        assert "(2-0j)" in shown and "(2+0j)" not in shown, k
        if k == 0:
            assert "(2+0j)" in repr(reference[0][0])


def test_table_raises_only_for_a_contributing_non_finite_product():
    sft, orbit = FULL.sft, make_orbit((0,))
    zeros = StableBisection(*[periodic_left_ray(sft, orbit, 0)] * 2)
    # window -1: the unstable source's 1 at -1 meets the stable zeros, so
    # this off-diagonal pair never contributes, though its product is inf
    conflict = UnstableBisection(make_right_ray(sft, orbit, 0, -1, (1, 1), 1),
                                 make_right_ray(sft, orbit, 0, -1, (1,), 0))
    a = element("stable", [(1e200, zeros)])
    b = element("unstable", [(1e200, conflict),
                             (1, UnstableBisection(*[periodic_right_ray(sft, orbit, 0)] * 2))])
    assert math.isinf((a.terms[0][0] * b.terms[0][0]).real)
    for k in range(6):
        result = _symbolic_result(a, b, k, FULL.perron)
        assert result == _pairwise_result(a, b, k, FULL.perron), k
        assert isinstance(result, tuple), k
    # the off-diagonal pair of this case has its one roundtrip fixed point
    # at k = 0, as an overlap pair: with an infinite product it raises there
    # and nowhere else
    sys, a, b, _ = _offdiagonal_fixed_point_case()
    a = element("stable", [(1e200 if c == 1 else c, t) for c, t in a.terms])
    b = element("unstable", [(1e200 if c == 1 else c, t) for c, t in b.terms])
    for k in range(6):
        result = _symbolic_result(a, b, k, sys.perron)
        assert result == _pairwise_result(a, b, k, sys.perron), k
        assert isinstance(result, str) == (k == 0), k


def test_table_rows_equal_from_pairs_over_signed_zeros_and_overflows():
    # seeded random fixture elements whose coefficient parts mix signed
    # zeros, tiny, inexact and huge values: every row shows the outputs and
    # diagnostics of `ExactTrace.from_pairs` of the pair by pair reference,
    # or both raise NonFiniteCoefficient
    parts = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e200, -1e200, 1e-200, 0.1, 3.0)
    rng = random.Random(20261019)
    raised = 0
    for _ in range(300):
        sys = rng.choice([FULL, GOLDEN, THREE])

        def draw(side):
            x = random_element(rng, sys, side, rng.randint(1, 5))
            return element(side, [(complex(rng.choice(parts), rng.choice(parts)),
                                   type(t)(t.source, t.source) if rng.random() < 0.4 else t)
                                  for _, t in x.terms])

        a, b = draw("stable"), draw("unstable")
        for k in range(6):
            result = _symbolic_result(a, b, k, sys.perron)
            reference = _pairwise_result(a, b, k, sys.perron)
            if isinstance(reference, str):
                raised += 1
                assert isinstance(result, str) and result.startswith("NonFiniteCoefficient: ")
            else:
                assert result == reference, (a, b, k)
    assert 0 < raised < 300 * 6


def test_one_unstable_element_swept_with_two_stable_partners():
    # the table of b is rebuilt for each new partner, so alternating partners
    # gives the pair by pair reference on every call
    a1, b = _many_terms_pair(0, 12, 4)
    a2, _ = _many_terms_pair(7, 12, 4)
    for k in range(12):
        for a in (a1, a2, a1):
            assert _symbolic_result(a, b, k, THREE.perron) \
                == _pairwise_result(a, b, k, THREE.perron), k


def test_a_finished_sweep_keeps_no_element_alive():
    # the table lives on the unstable element and holds only its stable
    # partner, so dropping both elements frees both
    import weakref

    a, b = _many_terms_pair(3, 8, 3)
    report = scaled_trace_sequence(a, b, range(0, 9), THREE.perron)
    refs = [weakref.ref(a), weakref.ref(b)]
    del a, b
    assert len(report.rows) == 9
    assert [ref() for ref in refs] == [None, None]


def test_a_sweeps_table_leaves_equality_hash_and_repr_alone():
    # the table is stashed on b, not held in a field
    a, b = _many_terms_pair(3, 8, 3)
    scaled_trace_sequence(a, b, range(0, 9), THREE.perron)
    assert "pair_table" in b.__dict__
    for x in (a, b):
        twin = element(x.side, x.terms)
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
    assert "pair_table" not in repr(b)


def _assert_table_rows_sum_their_pairs(a, b, p, ks):
    # each row sums the numerators of its table's slots; a trace built from
    # its pairs derives its own, and both equal the Fraction sum of the pairs
    for k in ks:
        row = trace_product(a, b, k, p)
        assert row.dyadic is not None, k
        built = ExactTrace.from_pairs(row.pairs)
        assert built.dyadic is None, k
        assert _sum_outcome(row) == _sum_outcome(built), k
        assert row.exact_total() == (sum(Fraction(c.real) * n for c, n in row.pairs),
                                     sum(Fraction(c.imag) * n for c, n in row.pairs)), k


def test_table_rows_with_non_dyadic_coefficients():
    a, b = _many_terms_pair(11, 24, 8)
    a = element("stable", [((0.1, 0.3, 1 / 3)[i % 3], t) for i, (_, t) in enumerate(a.terms)])
    b = element("unstable", [((1 / 3, 0.1 - 0.3j, 0.3)[i % 3], t)
                             for i, (_, t) in enumerate(b.terms)])
    _assert_table_rows_sum_their_pairs(a, b, THREE.perron, range(61))
    # not all totals are integers, and some are not even real
    outcomes = [_sum_outcome(trace_product(a, b, k, THREE.perron)) for k in range(61)]
    assert any(isinstance(whole, str) for *_, whole in outcomes)
    assert any(im for _, (_, im), _ in outcomes)


def test_table_rows_with_a_signed_zero_slot():
    # products 2-0j and 2+0j share a slot (see the case above), which every
    # row shows as its first member, 2-0j, and sums by that member's numerators
    sft, orbit = FULL.sft, make_orbit((0,))
    a = element("stable", [(-1, StableBisection(*[periodic_left_ray(sft, orbit, 0)] * 2)),
                           (1, StableBisection(*[periodic_left_ray(sft, orbit, 1)] * 2))])
    f0 = make_right_ray(sft, orbit, 0, -1, (1,), 0)
    b = element("unstable", [(-2, UnstableBisection(f0, f0)),
                             (2, UnstableBisection(*[periodic_right_ray(sft, orbit, 1)] * 2))])
    _assert_table_rows_sum_their_pairs(a, b, FULL.perron, range(61))
    assert "(2-0j)" in repr(trace_product(a, b, 60, FULL.perron).pairs)


def test_table_rows_beside_a_non_finite_slot_that_never_contributes():
    sft, orbit = FULL.sft, make_orbit((0,))
    zeros = StableBisection(*[periodic_left_ray(sft, orbit, 0)] * 2)
    conflict = UnstableBisection(make_right_ray(sft, orbit, 0, -1, (1, 1), 1),
                                 make_right_ray(sft, orbit, 0, -1, (1,), 0))
    a = element("stable", [(1e200, zeros)])
    b = element("unstable", [(1e200, conflict),
                             (0.1, UnstableBisection(*[periodic_right_ray(sft, orbit, 0)] * 2))])
    assert math.isinf((a.terms[0][0] * b.terms[0][0]).real)
    _assert_table_rows_sum_their_pairs(a, b, FULL.perron, range(61))


def test_table_rows_of_golden_mean_traces_beyond_the_float_range():
    a, b = canonical_pair(GOLDEN)
    a, b = 0.1 * a, 0.3 * b
    ks = [*range(61), 740, 800]
    _assert_table_rows_sum_their_pairs(a, b, GOLDEN.perron, ks)
    # F(1602) is about 10^334: the row prints exactly, past the float range,
    # as the count times the float product 0.1 * 0.3 (ROADMAP item 10)
    row = trace_product(a, b, 800, GOLDEN.perron)
    assert row.exact_total()[0] == Fraction(0.1 * 0.3) * fib(1602)
    assert len(row.render()) > 334 and "e" not in row.render()


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("seed", [0, 5])
def test_diagnostics_where_the_last_overlap_ends(seed, shift):
    # the last k with an overlap pair and the first k without one, the
    # decoupling step, from which the row reads no stable term: both as the
    # pair by pair reference, at an even and at an odd widest window gap
    a, b = _many_terms_pair(seed, 24, 8)
    a = apply_alpha(a, -shift)
    widest = max(e.window for _, e in a.terms) - min(f.window for _, f in b.terms)
    assert widest > 0 and widest % 2 == shift
    last = (widest - 1) // 2
    assert last + 1 == decoupling_step(a, b)
    for k, overlapping in ((last, True), (last + 1, False)):
        result = _symbolic_result(a, b, k, THREE.perron)
        assert result == _pairwise_result(a, b, k, THREE.perron), k
        assert (result[1][1] > 0) == overlapping, k


def test_overflowing_coefficient_products():
    from sfttrace.perron import NonFiniteCoefficient

    _, b = canonical_pair(GOLDEN)
    big_b = element("unstable", [(1e200, t) for _, t in b.terms])
    # an off-diagonal pair in the bridge regime contributes nothing, so its
    # infinite coefficient product never reaches a trace
    off = element("stable", [(1e200, t) for _, t in offdiagonal_stable(GOLDEN).terms])
    report = scaled_trace_sequence(off, big_b, range(0, 9), GOLDEN.perron)
    assert all(row.trace.pairs == () for row in report.rows)
    # a diagonal pair counts its bridges from k = 0 on
    a, _ = canonical_pair(GOLDEN)
    big_a = element("stable", [(1e200, t) for _, t in a.terms])
    with pytest.raises(NonFiniteCoefficient):
        trace_product_detail(big_a, big_b, 0, GOLDEN.perron)
    with pytest.raises(NonFiniteCoefficient):
        scaled_trace_sequence(big_a, big_b, [3, 0], GOLDEN.perron)


def test_trace_product_argument_guards():
    a, b = canonical_pair(FULL)
    with pytest.raises(ValueError):
        trace_product(a, b, -1, FULL.perron)
    from sfttrace.algebra import SideMismatch
    with pytest.raises(SideMismatch):
        trace_product(b, b, 1, FULL.perron)
    with pytest.raises(SideMismatch):
        product_operator(b, b, FULL.perron)


def test_scaled_traces_converge_for_all_fixture_pairs():
    # the limit statement holds for every shipped elementary pair
    for sys in (FULL, GOLDEN, THREE):
        for name, a, b in fixture_pairs(sys):
            report = scaled_trace_sequence(a, b, [0, 5, 40], sys.perron)
            first, mid, last = (row.abs_err for row in report.rows)
            assert last <= 1e-10, (sys.name, name)
            assert last <= first + 1e-15, (sys.name, name)
            assert mid <= first + 1e-15, (sys.name, name)


def test_trace_positive_for_nonnegative_diagonals():
    for sys in (FULL, GOLDEN, THREE):
        a, b = canonical_pair(sys)
        for k in range(0, 6):
            assert trace_product(a, b, k, sys.perron).as_int() >= 0


def test_scaled_traces_grow_without_bound_for_growing_support():
    # diagonal indicators over ever-larger past cylinders have ever-larger
    # trace; their scaled traces exceed any fixed bound (here 10^3)
    _, b = canonical_pair(FULL)
    orb1 = FULL.q_set.orbits[0]
    values = []
    for m in (4, 8, 12):
        a_m = diagonal("stable", periodic_left_ray(FULL.sft, orb1, -m))
        report = scaled_trace_sequence(a_m, b, range(0, 3), FULL.perron)
        vals = {row.scaled.real for row in report.rows}
        assert len(vals) == 1  # constant in k on the full shift
        values.append(vals.pop())
    assert values[0] < values[1] < values[2]
    assert values[2] == pytest.approx(2 ** 12, rel=1e-12)
    assert values[2] > 1e3


def test_big_k_log_scaling():
    a, b = canonical_pair(FULL)
    tr = trace_product(a, b, 300, FULL.perron)
    assert tr.as_int() == 2 ** 600
    assert tr.scaled(2.0, 300) == pytest.approx(1.0, rel=1e-9)


def _per_pair_scaled(pairs, lam, k):
    """The scaled value with lam^{2k} and its logarithm computed afresh for
    every pair: the reference `ExactTrace.scaled` must match bit for bit."""
    def scaled_count(n):
        if n == 0:
            return 0.0
        if n.bit_length() < 970 and 2 * k * math.log2(lam) < 970:
            return n / lam ** (2 * k)
        return math.exp(math.log(n) - 2 * k * math.log(lam))

    out = 0j
    for c, n in pairs:
        out += c * scaled_count(n)
    return out


def test_scaled_is_bit_identical_to_the_per_pair_formula():
    rng = random.Random(20261019)
    while True:
        size = rng.randrange(3, 7)
        trans = tuple(tuple(int(rng.random() < 0.6) for _ in range(size)) for _ in range(size))
        if not (all(map(any, trans)) and all(map(any, zip(*trans)))):
            # the constructor refuses exactly the draws with a zero row or column
            with pytest.raises(ZeroRowOrColumn):
                Sft(trans)
            continue
        sft = Sft(trans)
        if is_mixing(sft):
            break
    perron_lam = compute_perron(sft).lam
    signs = [0.0, -0.0, 1.0, -1.0, 0.5, -3.25, 1e-300, 7e300]
    for lam in (2.0, PHI, 12.0, perron_lam):
        edge = 970 / (2 * math.log2(lam))
        ks = {0, 1, math.floor(edge) - 1, math.floor(edge), math.ceil(edge),
              math.ceil(edge) + 1, 10 ** 5}
        counts = [0, 1, 2 ** 969 - 1, 2 ** 969, 2 ** 970 - 1, 2 ** 970, 2 ** 970 + 1,
                  rng.randrange(2 ** 960, 2 ** 969), rng.randrange(2 ** 970, 2 ** 980),
                  rng.randrange(1, 2 ** 60)]
        for k in sorted(ks):
            for _ in range(20):
                pairs = tuple((complex(rng.choice(signs) * rng.random(), rng.choice(signs)),
                               rng.choice(counts)) for _ in range(rng.randrange(1, 6)))
                assert repr(ExactTrace(pairs).scaled(lam, k)) \
                    == repr(_per_pair_scaled(pairs, lam, k)), (lam, k, pairs)
            assert repr(ExactTrace(()).scaled(lam, k)) == repr(0j)


def test_exact_trace_render():
    assert ExactTrace.from_pairs([((1 + 0j), 5)]).render() == "5"
    assert ExactTrace.from_pairs([((1 + 0j), 2 ** 200)]).render() == str(2 ** 200)
    assert ExactTrace.from_pairs([((0.5 + 0j), 3)]).render() == "1.5"
    assert ExactTrace.from_pairs([((0.5 - 0.25j), 3)]).render() == "1.5-0.75j"
    # beyond the float range each part prints exactly, in the same shape
    n = 2 ** 1100 + 1
    re, im = ExactTrace.from_pairs([((0.5 - 0.25j), n)]).render().removesuffix("j").split("-")
    assert (Fraction(re), -Fraction(im)) == (Fraction(n, 2), Fraction(-n, 4))
    # past the interpreter's int-to-string digit limit (4300 by default)
    # every digit still prints, with the limit left as it was
    sys_ = sys_modules["sys"]
    limit = sys_.get_int_max_str_digits()
    assert ExactTrace.from_pairs([((1 + 0j), 10 ** 5000 + 1)]).render() \
        == "1" + "0" * 4999 + "1"
    assert ExactTrace.from_pairs([((-1 + 0j), 10 ** 5000 + 1)]).render() \
        == "-1" + "0" * 4999 + "1"
    n = 3 ** 9500  # 4533 digits, odd
    text = ExactTrace.from_pairs([((0.5 - 0.75j), n)]).render()
    assert sys_.get_int_max_str_digits() == limit
    try:
        sys_.set_int_max_str_digits(0)
        assert 3 * n % 4 == 3 and text == f"{n // 2}.5-{3 * n // 4}.75j"
    finally:
        sys_.set_int_max_str_digits(limit)


def test_decimal_pads_every_low_piece():
    # a split leaves a low piece with leading zeros, at every level
    from sfttrace.rep import _decimal

    sys_ = sys_modules["sys"]
    limit = sys_.get_int_max_str_digits()
    rng = random.Random(20261019)
    try:
        sys_.set_int_max_str_digits(640)
        for digits in (641, 1000, 1281, 2600, 5000):
            for n in (10 ** (digits - 1), 10 ** digits - 1,
                      rng.randrange(10 ** (digits - 1), 10 ** digits),
                      10 ** (digits - 1) + rng.randrange(10 ** (digits // 3))):
                text = _decimal(n)
                assert len(text) == digits and text[0] != "0"
                sys_.set_int_max_str_digits(0)
                assert text == str(n) and _decimal(-n) == "-" + text
                sys_.set_int_max_str_digits(640)
    finally:
        sys_.set_int_max_str_digits(limit)


# subnormals, the extremes of the exponent range and both zeros
_EDGE_FLOATS = [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
                1.7976931348623157e308, -1e308, 0.0, -0.0, 1.0, -0.375]
_COEFFS = st.builds(
    complex,
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
)


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(pairs=st.lists(st.tuples(_COEFFS, st.integers(0, 2 ** 5000)), max_size=10),
       cancel=st.booleans())
@example(pairs=[(complex(5e-324, -0.0), 3), (complex(1e300, 0.5), 2 ** 5000),
                (complex(-0.0, 1e-310), 1)], cancel=False)
@example(pairs=[(complex(5e-324, 1e308), 2 ** 4999), (complex(-0.375, -0.0), 7)],
         cancel=True)
def test_exact_total_matches_fraction_reference(pairs, cancel):
    if cancel:
        # every coefficient meets its negative with the same count
        pairs = pairs + [(-c, n) for c, n in pairs]
    reference = (sum((Fraction(c.real) * n for c, n in pairs), Fraction(0)),
                 sum((Fraction(c.imag) * n for c, n in pairs), Fraction(0)))
    trace = ExactTrace.from_pairs(pairs)
    assert trace.exact_total() == reference
    # trace-run reads its exact-zero regime off the rendered CSV column
    assert (trace.render() == "0") == (reference == (0, 0))
    if cancel:
        assert reference == (0, 0)
    # other pairs, same total: equal traces hash equally
    padded = ExactTrace.from_pairs(list(reversed(pairs)) + [(0.75 - 2j, 7), (-0.75 + 2j, 7)])
    assert padded == trace and hash(padded) == hash(trace)


def test_vanishing_product_disjoint_orbits():
    a, b = canonical_pair(FULL)
    products = (product_operator(a, b, FULL.perron, "ab"),
                product_operator(a, b, FULL.perron, "ba"))
    rows = vanishing_product_check(a, b, FULL.perron, FULL.p_set, FULL.q_set, 6, products)
    assert rows[0][1] == pytest.approx(1.0, abs=1e-10)
    assert rows[0][2] == pytest.approx(1.0, abs=1e-10)
    for n, nab, nba in rows[1:]:
        assert nab == 0.0 and nba == 0.0


def test_vanishing_product_requires_disjoint():
    a, b = canonical_pair(GOLDEN)  # P = Q here
    products = (product_operator(a, b, GOLDEN.perron, "ab"),
                product_operator(a, b, GOLDEN.perron, "ba"))
    with pytest.raises(OrbitsNotDisjoint):
        vanishing_product_check(a, b, GOLDEN.perron, GOLDEN.p_set, GOLDEN.q_set, 3, products)


def test_commutator_zero_for_diagonal_pairs():
    a, b = canonical_pair(GOLDEN)
    for n, norm in commutator_decay(a, b, GOLDEN.perron, range(0, 6)):
        assert norm == 0.0


def test_commutator_decays_and_decouples():
    # off-diagonal stable element at window 2 against the canonical future:
    # nonzero commutator while the windows overlap, exactly zero after
    sys = GOLDEN
    orb0 = sys.q_set.orbits[0]
    alpha = periodic_left_ray(sys.sft, orb0, 2)
    # the source deviates from the periodic pattern inside [0, 2), where the
    # future constraint will overlap at n = 0
    beta = make_left_ray(sys.sft, orb0, 0, 0, (1, 0), 2)
    a = element("stable", [(1, StableBisection(alpha, beta))])
    _, b = canonical_pair(sys)
    rows = commutator_decay(a, b, sys.perron, range(0, 8))
    assert rows[0][1] > 0
    decoupled = [norm for n, norm in rows if 2 * n >= 2]
    assert all(norm == 0.0 for norm in decoupled)
    assert rows[-1][1] < rows[0][1]


def test_unstable_side_on_non_palindromic_orbit():
    # the futures run over the 3-cycle (a b c), whose reversal is a
    # different cyclic word, so the unstable side cannot lean on symmetry;
    # the oracle applies rays coordinate by coordinate and is the check
    from sfttrace.algebra import UnstableBisection, involute, refine
    from sfttrace.fixtures import System, random_element
    from sfttrace.points import make_orbit_set

    sft = THREE.sft
    sys = System("three-symbol-cycle", sft, make_orbit_set([[0, 1, 2]], sft),
                 make_orbit_set([[2]], sft), THREE.perron)
    points = enumerate_heteroclinic(sft, sys.p_set, sys.q_set, 3)
    rng = random.Random(2024)
    for _ in range(3):
        b2 = random_element(rng, sys, "unstable", 2)
        b1 = random_element(rng, sys, "unstable", 2) + involute(b2)
        prod = convolve(b1, b2)
        assert not prod.is_zero
        for w in points:
            assert apply_element(prod, w) == apply_to_combination(b1, apply_element(b2, w))
        for _, f in b1.terms:
            pieces = refine(sft, f, f.window - 2)
            assert all(isinstance(e, UnstableBisection) for e in pieces)
            whole = element("unstable", [(1, f)])
            split = element("unstable", [(1, e) for e in pieces])
            for w in points:
                assert apply_element(whole, w) == apply_element(split, w)
    # keep the oracle's enumeration window small: redraw wide pairs
    pairs = 0
    while pairs < 2:
        a = random_element(rng, sys, "stable", 2)
        b = random_element(rng, sys, "unstable", 2)
        if required_window(a, b, 3) > 5:
            continue
        pairs += 1
        for k in range(0, 4):
            assert trace_product(a, b, k, sys.perron) == trace_product_oracle(
                a, b, k, required_window(a, b, k), sys.perron, sys.p_set, sys.q_set
            )
