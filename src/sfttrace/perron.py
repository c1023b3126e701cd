"""Perron-Frobenius data, entropy, and the Parry/Bowen measure family.

For a primitive transition matrix A we compute the dominant eigenvalue
lambda together with positive right/left eigenvectors v, u normalized so
that u.v = 1.  From these:

  * the measure of a word cylinder fixing coordinates i..j to w is
    u[w_i] * v[w_j] * lambda^{-(j-i)} (the Parry measure, the unique
    measure of maximal entropy),
  * a past cylinder fixing all coordinates < N carries unstable-leaf
    mass lambda^{-N} * v[terminal symbol],
  * a future cylinder fixing all coordinates >= M carries stable-leaf
    mass lambda^{M+1} * u[initial symbol].

The absolute normalizers of the two leaf families are a convention; only
their product is forced (it must reproduce the Parry measure under the
local product structure), and the (1, lambda) split used here makes the
full 2-shift's canonical cylinders have mass exactly 1.  The leaf
measures scale by lambda^{+1} / lambda^{-1} respectively under the shift,
which here is pure exponent bookkeeping (N -> N-1, M -> M-1).

The power iteration runs in plain floats over the successor lists of the
matrix and of its transpose.  A row of A.x is summed left to right, and
each dot product rounds once per multiply-add, as a BLAS `ddot` with fused
multiply-adds does: the exact product of two floats is split into two
floats (Dekker) and added with `math.fsum`.  Plain rounding of the
product as well would move lambda and u by an ulp on the three-symbol
fixture, and with them the scaled trace values of every report.
"""

from __future__ import annotations

import math

from .sft import Sft, is_admissible, is_mixing
from .values import Value

ITERATION_CAP = 10 ** 6
# iterations without a new minimum residual before giving up on tol
STALL_LIMIT = 100
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


class NotPrimitive(ValueError):
    """Transition matrix is not primitive; no Perron data."""


class NoConvergence(RuntimeError):
    """Power iteration failed to reach the requested residual."""


class InadmissibleWord(ValueError):
    pass


class NonFiniteCoefficient(ArithmeticError):
    """A value beyond the float range: a coefficient product or operator
    entry that is inf or nan, or a leaf mass whose power of lambda is."""


class PerronData(Value):
    """Dominant eigen-data of a primitive SFT; carries the system it came from.

    Invariants: u.v = 1, all entries strictly positive, and both
    eigen-residuals (max-norm) bounded by `residual`.
    """

    _fields = ("sft", "lam", "v", "u", "residual")

    def __init__(self, sft: Sft, lam: float, v: tuple[float, ...], u: tuple[float, ...],
                 residual: float):
        self.__dict__.update(sft=sft, lam=lam, v=v, u=u, residual=residual)


def _matvec(adjacency, x) -> list[float]:
    """The 0/1 matrix times x, each row summed left to right over its
    listed columns (builtin `sum` compensates float sums from Python 3.12)."""
    out = []
    for row in adjacency:
        s = 0.0
        for j in row:
            s += x[j]
        out.append(s)
    return out


def _dot(x, y) -> float:
    """x.y left to right, each multiply-add rounded once.

    The product p*q is exactly hi + lo (Dekker: p and q split into 26-bit
    halves), so fsum((acc, hi, lo)) is acc + p*q rounded once, as a fused
    multiply-add gives it.
    """
    acc = 0.0
    for p, q in zip(x, y):
        hi = p * q
        t = _SPLIT * p
        ph = t - (t - p)
        pl = p - ph
        t = _SPLIT * q
        qh = t - (t - q)
        ql = q - qh
        lo = ((ph * qh - hi) + ph * ql + pl * qh) + pl * ql
        acc = math.fsum((acc, hi, lo))
    return acc


def _residual(adjacency, x, lam) -> float:
    return max(abs(y - lam * xi) for xi, y in zip(x, _matvec(adjacency, x)))


def compute_perron(sft: Sft, tol: float = 1e-13) -> PerronData:
    """Deterministic simultaneous left/right power iteration.

    Starts from all-ones vectors, iterates with max-entry normalization for
    stability, estimates lambda by the Rayleigh quotient u.(Av), and reports
    v rescaled to min-entry 1 with u scaled so u.v = 1 (the scaling under
    which the worked cylinder masses below come out as stated).  Raises
    NotPrimitive if the system is not mixing, and NoConvergence when the
    max-norm residual has set no new minimum for STALL_LIMIT iterations
    (it has reached its float floor above tol) or the iteration cap is hit.
    """
    if not is_mixing(sft):
        raise NotPrimitive("transition matrix is not primitive")
    succ = sft.successor_table
    pred = sft.transpose.successor_table
    u = v = [1.0] * sft.n
    av = _matvec(succ, v)
    best, stalled = math.inf, 0
    for _ in range(ITERATION_CAP):
        top = max(av)
        v = [x / top for x in av]
        u = _matvec(pred, u)
        s = _dot(u, v)
        u = [x / s for x in u]
        av = _matvec(succ, v)  # also the next iteration's A.v
        lam = _dot(u, av)
        # report v with min-entry 1; compensate u to keep u.v = 1
        c = min(v)
        v_out = [x / c for x in v]
        u_out = [x * c for x in u]
        res = max(_residual(succ, v_out, lam), _residual(pred, u_out, lam))
        if res <= tol:
            return PerronData(sft, lam, tuple(v_out), tuple(u_out), res)
        if res < best:
            best, stalled = res, 0
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                raise NoConvergence(
                    f"residual stuck at {best:.3g} > {tol} for {STALL_LIMIT} "
                    f"iterations; tol too small")
    raise NoConvergence(
        f"residual above {tol} after {ITERATION_CAP} iterations; tol too small"
    )


def entropy(p: PerronData) -> float:
    """Topological entropy log(lambda)."""
    return math.log(p.lam)


def mu_bowen(p: PerronData, word: tuple[int, ...]) -> float:
    """Parry measure of a cylinder fixing consecutive coordinates to `word`.

    Shift invariance makes it depend only on the length and the endpoint
    symbols, so no position is taken; the empty word gives the whole
    space, mass 1.
    """
    if not word:
        return 1.0
    if not is_admissible(p.sft, word):
        raise InadmissibleWord(f"word {word} not admissible")
    return p.u[word[0]] * p.v[word[-1]] * p.lam ** (1 - len(word))


def mu_u_data(p: PerronData, terminal_symbol: int, n: int) -> float:
    """Unstable-leaf mass of a past cylinder fixing all coordinates < n,
    with `terminal_symbol` at n - 1: lambda^{-n} * v[terminal symbol]."""
    return _lam_power(p, -n) * p.v[terminal_symbol]


def mu_s_data(p: PerronData, initial_symbol: int, m: int) -> float:
    """Stable-leaf mass of a future cylinder fixing all coordinates >= m,
    with `initial_symbol` at m: lambda^{m+1} * u[initial symbol]."""
    return _lam_power(p, m + 1) * p.u[initial_symbol]


def require_finite(z: complex, what: str) -> complex:
    """z itself; NonFiniteCoefficient, naming z as `what`, when a part of z
    is inf or nan."""
    if math.isfinite(z.real) and math.isfinite(z.imag):
        return z
    raise NonFiniteCoefficient(f"{what} {z!r} is not finite")


def _lam_power(p: PerronData, e: int) -> float:
    """lambda^e; NonFiniteCoefficient when it is beyond the float range."""
    try:
        return p.lam ** e
    except OverflowError:
        raise NonFiniteCoefficient(f"a leaf mass needs lambda^{e}, beyond the float range") from None
