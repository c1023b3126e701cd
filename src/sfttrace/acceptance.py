"""The acceptance battery: every headline claim at a pinned tolerance.

Each criterion is a function returning a CheckRow; `run_all` executes the
battery in order.  The same rows back the test suite and the `verify`
subcommand, so a green battery means the shipped numbers hold on this
machine exactly as documented.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .algebra import apply_alpha, diagonal, tau_s, tau_u, trace_property_check
from .fixtures import (
    System,
    all_systems,
    canonical_pair,
    fixture_pairs,
    full_shift,
    golden_mean,
    mixed_pair,
    offdiagonal_stable,
    random_element,
)
from .perron import compute_perron, mu_bowen, mu_s_data, mu_u_data
from .rep import (
    commutator_decay,
    product_operator,
    required_window,
    scaled_trace_sequence,
    trace_product,
    trace_product_detail,
    trace_product_oracle,
    vanishing_product_check,
)
from .sft import Word, word_levels

PHI = (1 + math.sqrt(5)) / 2

TOLERANCES = {
    "AC-1": 1e-12,
    "AC-2-closed-form": 1e-12,
    "AC-2-tail": 1e-7,
    "AC-2-target": 1e-10,
    "AC-4-product": 1e-10,
    "AC-4-mass": 1e-12,
    "AC-7-lambda": 1e-12,
    "AC-7-residual": 1e-12,
    "AC-7-parry": 1e-10,
    "AC-8": 1e-10,
}

RUNTIME_LIMITS = {
    "AC-1": 1.0,
    "AC-2": 5.0,
    "AC-3": 1.0,
    "AC-4": 10.0,
    "AC-5": 30.0,
    "AC-6": 10.0,
}


@dataclass(frozen=True)
class CheckRow:
    name: str
    description: str
    passed: bool
    measured: str
    tolerance: str
    runtime: float

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name:<6} {status:<4} {self.description}: {self.measured}"
                f" (tol {self.tolerance}, {self.runtime:.2f}s)")


@dataclass(frozen=True)
class RunSummary:
    rows: tuple[CheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _fib(n: int) -> int:
    def doubling(m):
        if m == 0:
            return (0, 1)
        a, b = doubling(m >> 1)
        c = a * ((b << 1) - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return doubling(n)[0]


def ac1_full_shift_exact() -> CheckRow:
    """Full 2-shift: every scaled trace and the target are exactly 1."""
    start = time.perf_counter()
    sys = full_shift()
    a, b = canonical_pair(sys)
    report = scaled_trace_sequence(a, b, range(0, 21), sys.perron)
    tol = TOLERANCES["AC-1"]
    worst = max(
        [abs(row.scaled - 1) for row in report.rows] + [abs(report.target - 1)]
    )
    elapsed = time.perf_counter() - start
    passed = worst <= tol and elapsed < RUNTIME_LIMITS["AC-1"]
    return CheckRow("AC-1", "full-shift scaled traces all equal 1",
                    passed, f"worst deviation {worst:.3e}", f"{tol:g}", elapsed)


def ac2_golden_convergence() -> CheckRow:
    """Golden mean out to k = 200: exact Fibonacci traces, closed-form error."""
    start = time.perf_counter()
    sys = golden_mean()
    a, b = canonical_pair(sys)
    report = scaled_trace_sequence(a, b, range(0, 201), sys.perron)
    ok = True
    worst_closed = 0.0
    for row in report.rows:
        if row.trace.as_int() != _fib(2 * row.k + 2):
            ok = False
        closed = PHI ** (-4 * row.k - 2) / math.sqrt(5)
        worst_closed = max(worst_closed, abs(row.abs_err - closed))
        if row.k >= 8 and row.abs_err > TOLERANCES["AC-2-tail"]:
            ok = False
    if worst_closed > TOLERANCES["AC-2-closed-form"]:
        ok = False
    target_dev = abs(report.target - PHI * (PHI / math.sqrt(5)))
    if target_dev > TOLERANCES["AC-2-target"]:
        ok = False
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < RUNTIME_LIMITS["AC-2"]
    return CheckRow(
        "AC-2", "golden-mean traces exact, error matches closed form to k=200",
        passed,
        f"max |err-closed| {worst_closed:.3e}, target dev {target_dev:.3e}",
        f"{TOLERANCES['AC-2-closed-form']:g}", elapsed)


def ac3_offdiagonal_vanishing() -> CheckRow:
    """Off-diagonal stable element: zero trace and empty fixed-point sets."""
    start = time.perf_counter()
    sys = golden_mean()
    a = offdiagonal_stable(sys)
    _, b = canonical_pair(sys)
    ok = True
    for k in range(2, 26):
        tr, diag = trace_product_detail(a, b, k, sys.perron)
        if tr.as_int() != 0 or diag.offdiag_fixed_points != 0:
            ok = False
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < RUNTIME_LIMITS["AC-3"]
    return CheckRow("AC-3", "off-diagonal traces vanish with empty fixed-point sets",
                    passed, "all k in 2..25 exact zero", "exact", elapsed)


def _measure_invariants(sys: System):
    p = sys.perron
    sft = sys.sft
    worst_product = 0.0
    worst_additive = 0.0
    levels = word_levels(sft, range(sft.n), 8)
    next(levels)  # the empty word
    for words in levels:
        for syms in words:
            w = Word(-(len(syms) // 2), syms)
            split = mu_u_data(p, syms[-1], w.end) * mu_s_data(p, syms[0], w.start)
            worst_product = max(worst_product, abs(mu_bowen(p, w) - split))
    for t in range(sft.n):
        ext = sum(mu_u_data(p, j, 1) for j in range(sft.n) if sft.allowed(t, j))
        worst_additive = max(worst_additive, abs(ext - mu_u_data(p, t, 0)))
        ext = sum(mu_s_data(p, i, -1) for i in range(sft.n) if sft.allowed(i, t))
        worst_additive = max(worst_additive, abs(ext - mu_s_data(p, t, 0)))
    # shift scaling is exponent bookkeeping: exact ratio identities
    scale_ok = all(
        mu_u_data(p, t, -1) == p.lam * mu_u_data(p, t, 0)
        and mu_s_data(p, t, -1) * p.lam == mu_s_data(p, t, 0)
        for t in range(sft.n)
    )
    mass_dev = abs(sum(mu_bowen(p, Word(0, (i,))) for i in range(sft.n)) - 1)
    return worst_product, worst_additive, scale_ok, mass_dev


def ac4_measure_invariants() -> CheckRow:
    """Product / additivity / scaling / mass identities on all three systems."""
    start = time.perf_counter()
    ok = True
    worst_p = worst_a = worst_m = 0.0
    for sys in all_systems():
        wp, wa, scale_ok, wm = _measure_invariants(sys)
        worst_p, worst_a, worst_m = max(worst_p, wp), max(worst_a, wa), max(worst_m, wm)
        if not scale_ok:
            ok = False
    if worst_p > TOLERANCES["AC-4-product"] or worst_a > TOLERANCES["AC-4-product"]:
        ok = False
    if worst_m > TOLERANCES["AC-4-mass"]:
        ok = False
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < RUNTIME_LIMITS["AC-4"]
    return CheckRow(
        "AC-4", "leaf-measure product/additivity/scaling/mass identities",
        passed,
        f"product {worst_p:.2e}, additivity {worst_a:.2e}, mass {worst_m:.2e}",
        f"{TOLERANCES['AC-4-product']:g}/{TOLERANCES['AC-4-mass']:g}", elapsed)


def ac5_oracle_equivalence() -> CheckRow:
    """Symbolic trace equals the basis-enumeration trace exactly everywhere."""
    start = time.perf_counter()
    ok = True
    checked = 0
    for sys in all_systems():
        for name, a, b in fixture_pairs(sys):
            for k in range(0, 6):
                sym = trace_product(a, b, k, sys.perron)
                brute = trace_product_oracle(a, b, k, required_window(a, b, k),
                                             sys.perron, sys.p_set, sys.q_set)
                checked += 1
                if sym != brute:
                    ok = False
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < RUNTIME_LIMITS["AC-5"]
    return CheckRow("AC-5", "symbolic and brute-force traces agree exactly",
                    passed, f"{checked} cases exact", "exact", elapsed)


def ac6_operator_checks() -> CheckRow:
    """Finite rank, eventual vanishing of shifted products, commutator decay."""
    start = time.perf_counter()
    sys = full_shift()
    a, b = canonical_pair(sys)
    ok = True
    t_ab = product_operator(a, b, sys.perron, "ab")
    t_ba = product_operator(a, b, sys.perron, "ba")
    if t_ab.rank() != 1 or t_ba.rank() != 1:
        ok = False
    rows = vanishing_product_check(a, b, sys.perron, sys.p_set, sys.q_set, 20)
    for n, nab, nba in rows:
        if n >= 1 and (nab != 0.0 or nba != 0.0):
            ok = False
    # mixed pair with off-diagonal parts: nonzero early commutator, then
    # exactly zero once the constraint windows decouple
    gm = golden_mean()
    am, bm = mixed_pair(gm)
    norms = commutator_decay(am, bm, gm.perron, range(0, 16))
    decouple = max(
        (e.window - f.window + 1) // 2
        for _, e in am.terms
        for _, f in bm.terms
    )
    decouple = max(decouple, 0)
    tail = [norm for n, norm in norms if n >= decouple]
    if any(norm != 0.0 for norm in tail):
        ok = False
    if any(n2 > n1 for (_, n1), (_, n2) in zip(norms[decouple:], norms[decouple + 1:])):
        ok = False
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < RUNTIME_LIMITS["AC-6"]
    return CheckRow(
        "AC-6", "rank-1 products, vanishing shifted products, commutator decay",
        passed, f"decoupled at n={decouple}", "exact", elapsed)


def ac7_perron_values() -> CheckRow:
    """Eigenvalue, residuals, and 1-cylinder masses against closed forms."""
    start = time.perf_counter()
    ok = True
    gm = golden_mean()
    lam_dev = abs(gm.perron.lam - PHI)
    if lam_dev > TOLERANCES["AC-7-lambda"]:
        ok = False
    worst_res = max(sys.perron.residual for sys in all_systems())
    if worst_res > TOLERANCES["AC-7-residual"]:
        ok = False
    fs = full_shift()
    parry_dev = 0.0
    for i, expect in ((0, 0.5), (1, 0.5)):
        parry_dev = max(parry_dev, abs(mu_bowen(fs.perron, Word(0, (i,))) - expect))
    golden_expect = ((5 + math.sqrt(5)) / 10, (5 - math.sqrt(5)) / 10)
    for i, expect in enumerate(golden_expect):
        parry_dev = max(parry_dev, abs(mu_bowen(gm.perron, Word(0, (i,))) - expect))
    if parry_dev > TOLERANCES["AC-7-parry"]:
        ok = False
    elapsed = time.perf_counter() - start
    return CheckRow(
        "AC-7", "Perron data and 1-cylinder masses match closed forms",
        ok, f"lambda dev {lam_dev:.2e}, residual {worst_res:.2e}, "
            f"parry dev {parry_dev:.2e}",
        f"{TOLERANCES['AC-7-lambda']:g}", elapsed)


def ac8_trace_property() -> CheckRow:
    """tau(ab) = tau(ba) for 50 seeded pseudorandom pairs per system."""
    start = time.perf_counter()
    ok = True
    for sys in all_systems():
        rng = random.Random(20240 + sys.sft.n)
        for i in range(50):
            side = "stable" if i % 2 == 0 else "unstable"
            x = random_element(rng, sys, side, 3)
            y = random_element(rng, sys, side, 3)
            if not trace_property_check(x, y, sys.perron, TOLERANCES["AC-8"]):
                ok = False
    elapsed = time.perf_counter() - start
    return CheckRow("AC-8", "trace property on 150 seeded random pairs",
                    ok, "3 systems x 50 pairs", f"{TOLERANCES['AC-8']:g}", elapsed)


CRITERIA = [
    ac1_full_shift_exact,
    ac2_golden_convergence,
    ac3_offdiagonal_vanishing,
    ac4_measure_invariants,
    ac5_oracle_equivalence,
    ac6_operator_checks,
    ac7_perron_values,
    ac8_trace_property,
]


def run_all() -> RunSummary:
    return RunSummary(tuple(fn() for fn in CRITERIA))
