"""The acceptance battery as tests: one criterion per test, one printed
pass/fail line each, every tolerance pinned in sfttrace.acceptance."""

from sfttrace import acceptance

LIMITS = acceptance.RUNTIME_LIMITS


def _check(row, name):
    print(row.line())
    assert row.passed, row.line()
    if name in LIMITS:
        assert row.runtime < LIMITS[name], f"{name} runtime {row.runtime:.2f}s"


def test_ac1_full_shift_scaled_traces_exact():
    _check(acceptance.ac1_full_shift_exact(), "AC-1")


def test_ac2_golden_mean_convergence_to_k200():
    _check(acceptance.ac2_golden_convergence(), "AC-2")


def test_ac3_offdiagonal_traces_vanish():
    _check(acceptance.ac3_offdiagonal_vanishing(), "AC-3")


def test_ac4_measure_invariants():
    _check(acceptance.ac4_measure_invariants(), "AC-4")


def test_ac5_oracle_equivalence():
    _check(acceptance.ac5_oracle_equivalence(), "AC-5")


def test_ac6_operator_checks():
    _check(acceptance.ac6_operator_checks(), "AC-6")


def test_ac7_perron_closed_forms():
    _check(acceptance.ac7_perron_values(), "AC-7")


def test_ac8_trace_property_random_pairs():
    _check(acceptance.ac8_trace_property(), "AC-8")


def test_runtime_limit_gates_only_the_criteria_that_have_one(monkeypatch):
    monkeypatch.setitem(LIMITS, "AC-3", 0)
    row = acceptance.ac3_offdiagonal_vanishing()
    assert not row.passed and row.runtime > 0
    ok, measured = acceptance.ac3_offdiagonal_vanishing.__wrapped__()
    assert ok and measured == row.measured
    # AC-7 has no runtime limit, so no runtime fails it
    assert "AC-7" not in LIMITS and acceptance.ac7_perron_values().passed
