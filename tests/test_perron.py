import hashlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import sfttrace.perron as perron_mod
from sfttrace.cli import load_config
from sfttrace.fixtures import all_systems
from sfttrace.perron import (
    InadmissibleWord,
    NoConvergence,
    NotPrimitive,
    compute_perron,
    entropy,
    mu_bowen,
    mu_s_data,
    mu_u_data,
)
from sfttrace.sft import InvalidMatrix, Sft, ZeroRowOrColumn, is_mixing, make_sft

PHI = (1 + math.sqrt(5)) / 2

FULL = make_sft([[1, 1], [1, 1]], ["0", "1"])
GOLDEN = make_sft([[1, 1], [1, 0]], ["0", "1"])
THREE = make_sft([[1, 1, 0], [1, 0, 1], [1, 1, 1]], ["a", "b", "c"])


def all_words(sft, length):
    words = [()]
    for _ in range(length):
        words = [
            w + (s,)
            for w in words
            for s in range(sft.n)
            if not w or sft.allowed(w[-1], s)
        ]
    return words


def test_perron_full_shift_exact():
    p = compute_perron(FULL)
    assert p.lam == pytest.approx(2.0, abs=1e-12)
    assert p.v == pytest.approx((1.0, 1.0), abs=1e-12)
    assert p.u == pytest.approx((0.5, 0.5), abs=1e-12)
    assert p.residual <= 1e-12


def test_perron_golden_mean():
    p = compute_perron(GOLDEN)
    assert p.lam == pytest.approx(PHI, abs=1e-12)
    assert p.v == pytest.approx((PHI, 1.0), abs=1e-11)
    expected_u = (PHI / (PHI ** 2 + 1), 1 / (PHI ** 2 + 1))
    assert p.u == pytest.approx(expected_u, abs=1e-11)
    assert p.residual <= 1e-12


@pytest.mark.parametrize("sft", [FULL, GOLDEN, THREE])
def test_perron_invariants(sft):
    p = compute_perron(sft)
    assert sum(ui * vi for ui, vi in zip(p.u, p.v)) == pytest.approx(1.0, abs=1e-12)
    assert all(x > 0 for x in p.u)
    assert all(x > 0 for x in p.v)
    assert p.residual <= 1e-12


def test_perron_rejects_non_primitive():
    with pytest.raises(NotPrimitive):
        compute_perron(make_sft([[0, 1], [1, 0]]))
    with pytest.raises(NotPrimitive):
        compute_perron(make_sft([[1]]))


def test_perron_no_convergence(monkeypatch):
    monkeypatch.setattr(perron_mod, "ITERATION_CAP", 50)
    with pytest.raises(NoConvergence):
        compute_perron(GOLDEN, tol=-1.0)


def test_stalled_residual_raises_quickly():
    # the golden mean reaches residual 0.0, so only a negative tol is out of
    # reach there; the three-symbol residual stops at 4.4e-16.  Both stop
    # STALL_LIMIT iterations after the floor, not at ITERATION_CAP.
    for sft, tol in ((GOLDEN, -1.0), (THREE, 1e-20), (THREE, 0.0)):
        start = time.perf_counter()
        with pytest.raises(NoConvergence, match="stuck"):
            compute_perron(sft, tol=tol)
        assert time.perf_counter() - start < 1.0


def perron_data(p):
    return (p.lam, p.v, p.u, p.residual)


# lambda, v, u and residual for the fixtures and the shipped configs; these
# are also the bits the former numpy iteration gave
PINNED_PERRON = {
    "full-2-shift": (2.0, (1.0, 1.0), (0.5, 0.5), 0.0),
    "golden-mean": (1.618033988749895, (1.6180339887499893, 1.0),
                    (0.44721359549994627, 0.2763932022499977), 9.43689570931383e-14),
    "three-symbol": (2.2469796037174667, (1.0, 1.2469796037174314, 1.8019377358048223),
                     (0.34929169541609484, 0.24171735309001247, 0.1938422668417487),
                     6.439293542825908e-14),
}
PINNED_PERRON["full_shift.json"] = PINNED_PERRON["full-2-shift"]
PINNED_PERRON["golden_mean.json"] = PINNED_PERRON["golden-mean"]
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def pinned_systems():
    systems = [(s.name, s.sft) for s in all_systems()]
    systems += [(name, load_config(str(CONFIG_DIR / name)).sft)
                for name in ("full_shift.json", "golden_mean.json")]
    return systems


def random_mixing(rng, count):
    out = []
    while len(out) < count:
        n = rng.randrange(2, 9)
        try:
            sft = make_sft([[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)])
        except (InvalidMatrix, ZeroRowOrColumn):
            continue
        if is_mixing(sft):
            out.append(sft)
    return out


# sha256 of the Perron data reprs of random_mixing(Random(20261018), 40)
RANDOM_PERRON_SHA256 = "a43b3d8f825431b80bfe94cf3cb50fedbb6a6f3d290526442d1f1f9f94aa7fae"


def test_perron_data_pinned(monkeypatch):
    # the stall check stops no converging run: with it switched off, the
    # same iterations give the same bits
    systems = pinned_systems()
    random_set = random_mixing(random.Random(20261018), 40)
    for stall_limit in (perron_mod.STALL_LIMIT, perron_mod.ITERATION_CAP):
        monkeypatch.setattr(perron_mod, "STALL_LIMIT", stall_limit)
        for name, sft in systems:
            assert perron_data(compute_perron(sft)) == PINNED_PERRON[name], name
        digest = hashlib.sha256()
        for sft in random_set:
            digest.update(repr(perron_data(compute_perron(sft))).encode())
        assert digest.hexdigest() == RANDOM_PERRON_SHA256


@st.composite
def mixing_matrices(draw):
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    trans = tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))
    if not (all(map(any, trans)) and all(map(any, zip(*trans)))):
        # the constructor refuses exactly the draws with a zero row or column
        with pytest.raises(ZeroRowOrColumn):
            Sft(trans)
        assume(False)
    sft = Sft(trans)
    assume(is_mixing(sft))
    return sft


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(sft=mixing_matrices())
def test_stall_check_changes_no_converging_run(sft):
    p = compute_perron(sft)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perron_mod, "STALL_LIMIT", perron_mod.ITERATION_CAP)
        assert perron_data(compute_perron(sft)) == perron_data(p)
    assert p.residual <= 1e-13


def once_rounded_dot(x, y):
    acc = 0.0
    for p, q in zip(x, y):
        acc = float(Fraction(acc) + Fraction(p) * Fraction(q))
    return acc


def test_dot_rounds_once_per_multiply_add():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randrange(1, 9)
        x = [rng.uniform(-1, 1) * 2.0 ** rng.randrange(-30, 30) for _ in range(n)]
        y = [rng.uniform(0, 1) * 2.0 ** rng.randrange(-30, 30) for _ in range(n)]
        assert perron_mod._dot(x, y) == once_rounded_dot(x, y)


def test_entropy():
    assert entropy(compute_perron(FULL)) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy(compute_perron(GOLDEN)) == pytest.approx(math.log(PHI), abs=1e-12)


def test_mu_bowen_examples():
    p = compute_perron(FULL)
    assert mu_bowen(p, (0,)) == pytest.approx(0.5, abs=1e-12)
    g = compute_perron(GOLDEN)
    assert mu_bowen(g, (0,)) == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-10)
    assert mu_bowen(g, ()) == 1.0


def test_mu_bowen_inadmissible():
    g = compute_perron(GOLDEN)
    with pytest.raises(InadmissibleWord):
        mu_bowen(g, (1, 1))


def test_mu_u_examples():
    p = compute_perron(FULL)
    assert mu_u_data(p, 1, 0) == pytest.approx(1.0, abs=1e-12)
    g = compute_perron(GOLDEN)
    assert mu_u_data(g, 0, 0) == pytest.approx(PHI, abs=1e-11)


def test_mu_s_examples():
    p = compute_perron(FULL)
    assert mu_s_data(p, 0, 0) == pytest.approx(1.0, abs=1e-12)
    g = compute_perron(GOLDEN)
    assert mu_s_data(g, 0, 0) == pytest.approx(PHI / math.sqrt(5), abs=1e-11)


@pytest.mark.parametrize("sft", [FULL, GOLDEN, THREE])
def test_product_identity_words_up_to_8(sft):
    # two-sided cylinder mass = unstable-leaf mass x stable-leaf mass of the split
    p = compute_perron(sft)
    for length in range(1, 9):
        for syms in all_words(sft, length):
            for start in (-(length // 2), 0):
                end = start + length
                product = mu_u_data(p, syms[-1], end) * mu_s_data(p, syms[0], start)
                assert mu_bowen(p, syms) == pytest.approx(product, abs=1e-10)


@pytest.mark.parametrize("sft", [FULL, GOLDEN, THREE])
def test_additivity(sft):
    p = compute_perron(sft)
    for t in range(sft.n):
        total = sum(
            mu_u_data(p, j, 1) for j in range(sft.n) if sft.allowed(t, j)
        )
        assert total == pytest.approx(mu_u_data(p, t, 0), abs=1e-10)
        total = sum(
            mu_s_data(p, i, -1) for i in range(sft.n) if sft.allowed(i, t)
        )
        assert total == pytest.approx(mu_s_data(p, t, 0), abs=1e-10)


@pytest.mark.parametrize("sft", [FULL, GOLDEN, THREE])
def test_total_mass(sft):
    p = compute_perron(sft)
    assert sum(mu_bowen(p, (i,)) for i in range(sft.n)) == pytest.approx(1.0, abs=1e-12)


def test_shift_scaling_exact_bookkeeping():
    # the shift image of a cylinder only moves the cut index: N -> N-1, M -> M-1
    g = compute_perron(GOLDEN)
    assert mu_u_data(g, 0, 1) / mu_u_data(g, 0, 2) == pytest.approx(g.lam, abs=1e-12)
    assert mu_s_data(g, 0, -1) / mu_s_data(g, 0, 0) == pytest.approx(1 / g.lam, abs=1e-12)


def test_product_identity_detects_broken_normalization():
    # with the future-cylinder constant wrongly set to lambda^M (instead of
    # lambda^{M+1}) the two-sided product identity must fail by a factor lambda
    p = compute_perron(GOLDEN)
    syms = (0, 1, 0)
    start, end = -1, 2
    broken = p.lam ** start * p.u[syms[0]]
    product = mu_u_data(p, syms[-1], end) * broken
    assert abs(mu_bowen(p, syms) - product) > 0.1

