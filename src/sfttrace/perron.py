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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sft import Sft, Word, is_admissible, is_mixing

ITERATION_CAP = 10 ** 6


class NotPrimitive(ValueError):
    """Transition matrix is not primitive; no Perron data."""


class NoConvergence(RuntimeError):
    """Power iteration failed to reach the requested residual."""


class InadmissibleWord(ValueError):
    pass


@dataclass(frozen=True)
class PerronData:
    """Dominant eigen-data of a primitive SFT; carries the system it came from.

    Invariants: u.v = 1, all entries strictly positive, and both
    eigen-residuals (max-norm) bounded by `residual`.
    """

    sft: Sft
    lam: float
    v: tuple[float, ...]
    u: tuple[float, ...]
    residual: float


def compute_perron(sft: Sft, tol: float = 1e-13) -> PerronData:
    """Deterministic simultaneous left/right power iteration.

    Starts from all-ones vectors, iterates with max-entry normalization for
    stability, estimates lambda by the Rayleigh quotient u.(Av), and reports
    v rescaled to min-entry 1 with u scaled so u.v = 1 (the scaling under
    which the worked cylinder masses below come out as stated).  Raises
    NotPrimitive if the system is not mixing and NoConvergence if the
    iteration cap is hit (tol below float precision).
    """
    if not is_mixing(sft):
        raise NotPrimitive("transition matrix is not primitive")
    a = np.array(sft.trans, dtype=float)
    at = a.T
    v = np.ones(sft.n)
    u = np.ones(sft.n)
    for _ in range(ITERATION_CAP):
        av = a @ v
        v = av / av.max()
        u = at @ u
        u = u / (u @ v)
        lam = u @ (a @ v)
        # report v with min-entry 1; compensate u to keep u.v = 1
        c = v.min()
        v_out = v / c
        u_out = u * c
        res = max(
            np.max(np.abs(a @ v_out - lam * v_out)),
            np.max(np.abs(at @ u_out - lam * u_out)),
        )
        if res <= tol:
            return PerronData(sft, float(lam), tuple(map(float, v_out)),
                              tuple(map(float, u_out)), float(res))
    raise NoConvergence(
        f"residual above {tol} after {ITERATION_CAP} iterations; tol too small"
    )


def entropy(p: PerronData) -> float:
    """Topological entropy log(lambda)."""
    return math.log(p.lam)


def mu_bowen(p: PerronData, w: Word) -> float:
    """Parry measure of the cylinder fixing coordinates [w.start, w.end) to w.

    Depends only on length and endpoint symbols (shift invariance); the
    empty word gives the whole space, mass 1.
    """
    if len(w) == 0:
        return 1.0
    if not is_admissible(p.sft, w):
        raise InadmissibleWord(f"word {w.symbols} not admissible")
    span = len(w.symbols) - 1
    return p.u[w.symbols[0]] * p.v[w.symbols[-1]] * p.lam ** (-span)


def mu_u_data(p: PerronData, terminal_symbol: int, n: int) -> float:
    """Unstable-leaf mass of a past cylinder fixing all coordinates < n,
    with `terminal_symbol` at n - 1: lambda^{-n} * v[terminal symbol]."""
    return p.lam ** (-n) * p.v[terminal_symbol]


def mu_s_data(p: PerronData, initial_symbol: int, m: int) -> float:
    """Stable-leaf mass of a future cylinder fixing all coordinates >= m,
    with `initial_symbol` at m: lambda^{m+1} * u[initial symbol]."""
    return p.lam ** (m + 1) * p.u[initial_symbol]
