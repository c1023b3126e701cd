import math

import pytest

import sfttrace.perron as perron_mod
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
from sfttrace.sft import Word, make_sft

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


def test_entropy():
    assert entropy(compute_perron(FULL)) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy(compute_perron(GOLDEN)) == pytest.approx(math.log(PHI), abs=1e-12)


def test_mu_bowen_examples():
    p = compute_perron(FULL)
    assert mu_bowen(p, Word(0, (0,))) == pytest.approx(0.5, abs=1e-12)
    g = compute_perron(GOLDEN)
    assert mu_bowen(g, Word(0, (0,))) == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-10)
    assert mu_bowen(g, Word(0, ())) == 1.0


def test_mu_bowen_inadmissible():
    g = compute_perron(GOLDEN)
    with pytest.raises(InadmissibleWord):
        mu_bowen(g, Word(0, (1, 1)))


def test_mu_bowen_position_invariant():
    g = compute_perron(GOLDEN)
    for start in (-3, 0, 7):
        assert mu_bowen(g, Word(start, (0, 1, 0))) == mu_bowen(g, Word(0, (0, 1, 0)))


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
                w = Word(start, syms)
                product = mu_u_data(p, syms[-1], w.end) * mu_s_data(p, syms[0], w.start)
                assert mu_bowen(p, w) == pytest.approx(product, abs=1e-10)


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
    assert sum(mu_bowen(p, Word(0, (i,))) for i in range(sft.n)) == pytest.approx(1.0, abs=1e-12)


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
    w = Word(-1, syms)
    broken = p.lam ** w.start * p.u[syms[0]]
    product = mu_u_data(p, syms[-1], w.end) * broken
    assert abs(mu_bowen(p, w) - product) > 0.1

