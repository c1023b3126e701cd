"""`trace-run` streams its rows: each is computed, written and dropped, and
the CSV and the summary equal what the whole report gives, written out
here without `rep.write_rows`."""

import json
import math
import random
from pathlib import Path

import pytest

from sfttrace import rep
from sfttrace.algebra import StableBisection, UnstableBisection, element
from sfttrace.cli import ExperimentConfig, load_config, main, write_config
from sfttrace.fixtures import random_element, three_symbol
from sfttrace.perron import compute_perron
from sfttrace.rep import format_complex, scaled_trace_sequence

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
HEADER = "k,trace,scaled,target,abs_err\n"


def _many_terms_config(path) -> str:
    """24 x 24 seeded terms on the three-symbol system, 8 of them diagonal
    per side, swept to k = 60: the pair of the bench's many-terms workload
    at seed 0, drawn the same way."""
    system = three_symbol()
    rng = random.Random(0)

    def draw(side):
        bisection = StableBisection if side == "stable" else UnstableBisection
        diagonal: dict = {}
        other: dict = {}
        while len(diagonal) < 8 or len(other) < 16:
            for c, t in random_element(rng, system, side, 1).terms:
                if len(diagonal) < 8:
                    diagonal.setdefault(bisection(t.source, t.source), c)
                elif not t.is_diagonal:
                    other.setdefault(t, c)
        return element(side, [(c, t) for t, c in (*diagonal.items(), *other.items())])

    a = draw("stable")
    b = draw("unstable")
    write_config(ExperimentConfig(system.sft, system.p_set, system.q_set, a, b, (0, 60), {},
                                  None), str(path))
    return str(path)


def _expected(config_path: str, kmax, out) -> tuple[str, str]:
    """(CSV, summary) of `trace-run`, built from the whole report without
    the writer under test: each line from the row's `render` and
    `format_complex`, the final error, the decay rate of
    `rep.fitted_decay_rate`, the zero regime from the exact totals and the
    tolerance check."""
    config = load_config(config_path)
    k_lo, k_hi = config.k_range
    report = scaled_trace_sequence(config.a, config.b, range(k_lo, (kmax or k_hi) + 1),
                                   compute_perron(config.sft))
    rows, target = report.rows, report.target
    csv = HEADER + "".join(f"{r.k},{r.trace.render()},{format_complex(r.scaled)},"
                           f"{format_complex(target)},{r.abs_err!r}\n" for r in rows)
    final_error = rows[-1].abs_err if rows else math.nan
    lines = [f"wrote {out} ({len(rows)} rows)"] if out else []
    lines += [f"target tau_s(a)*tau_u(b) = {format_complex(target)}",
              f"final abs error          = {final_error!r}"]
    rate = rep.fitted_decay_rate([r.k for r in rows], [r.abs_err for r in rows])
    if not math.isnan(rate):
        lines.append(f"fitted error decay rate  = {rate:.6g} per step")
    zeros = [r.trace.exact_total() == (0, 0) for r in rows]
    if zeros[-1]:
        first = len(zeros) - 1
        while first and zeros[first - 1]:
            first -= 1
        lines.append(f"exact-zero regime: every trace vanishes for k >= {rows[first].k}")
    tol = config.tolerances.get("final_abs_err")
    if tol is not None and final_error > tol:
        lines.append(f"FAIL final error {final_error:.3e} > {tol:g}")
    return csv, "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("name,kmax", [
    ("golden_mean.json", None), ("golden_mean.json", 1600),
    ("full_shift.json", None), ("full_shift.json", 1600),
    ("many_terms", None),
])
def test_streamed_csv_and_summary_equal_the_report(tmp_path, capsys, name, kmax, to_file):
    if name == "many_terms":
        config = _many_terms_config(tmp_path / "many.json")
    else:
        # the shipped config without its "output", so that no path means stdout
        doc = json.loads((CONFIG_DIR / name).read_text())
        del doc["output"]
        config = tmp_path / name
        config.write_text(json.dumps(doc))
        config = str(config)
    out = tmp_path / "trace.csv" if to_file else None
    csv, summary = _expected(config, kmax, out)
    capsys.readouterr()
    argv = ["trace-run", "--config", config, "--no-timestamp"]
    argv += ["--kmax", str(kmax)] * (kmax is not None) + ["--out", str(out)] * to_file
    code = main(argv)
    assert code == (3 if "FAIL" in summary else 0)
    stdout = capsys.readouterr().out
    if to_file:
        assert out.read_text() == csv and stdout == summary
    else:
        assert stdout == csv + summary


def test_each_row_comes_from_trace_product_at_call_time(tmp_path, capsys, monkeypatch):
    # the hook the benchmark's corrupted-trace test uses: a pair added at
    # k = 1 changes that row of the CSV and no other
    config = str(CONFIG_DIR / "golden_mean.json")
    exact = rep.trace_product
    clean = tmp_path / "clean.csv"
    assert main(["trace-run", "--config", config, "--out", str(clean), "--no-timestamp"]) == 0

    def off_by_one(a, b, k, p):
        tr = exact(a, b, k, p)
        return rep.ExactTrace.from_pairs(tr.pairs + ((1 + 0j, 1),)) if k == 1 else tr

    monkeypatch.setattr(rep, "trace_product", off_by_one)
    patched = tmp_path / "patched.csv"
    main(["trace-run", "--config", config, "--out", str(patched), "--no-timestamp"])
    before, after = clean.read_text().splitlines(), patched.read_text().splitlines()
    assert before[2].startswith("1,3,") and after[2].startswith("1,4,")
    assert [line for i, line in enumerate(after) if i != 2] \
        == [line for i, line in enumerate(before) if i != 2]


def _failing_doc() -> dict:
    # full shift: two stable terms of coefficients 1e200 and -1e200 whose
    # traces cancel, so the target is 0, against one unstable term of
    # 1e200 two coordinates below them.  Every pair overlaps at k = 0 and
    # meets a pinned 1 against a 0; at k = 1 both are bridge pairs, whose
    # products are +-inf, and the first count raises
    ray = {"orbit": ["0"], "body": ["1"]}
    zero = {"orbit": ["0"], "body": []}
    return {
        "sft": {"matrix": [[1, 1], [1, 1]]}, "P": [["0"]], "Q": [["0"]],
        "a": {"side": "stable", "terms": [
            {"coeff": [1e200, 0.0], "target_ray": ray, "source_ray": ray, "window": 0},
            {"coeff": [-1e200, 0.0], "target_ray": zero, "source_ray": zero, "window": 0}]},
        "b": {"side": "unstable", "terms": [
            {"coeff": [1e200, 0.0], "target_ray": ray, "source_ray": ray, "window": -2}]},
        "k_range": [0, 5],
    }


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_sweep_that_fails_partway_keeps_the_rows_before(tmp_path, capsys, to_file):
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(_failing_doc()))
    out = tmp_path / "trace.csv"
    argv = ["trace-run", "--config", str(path), "--no-timestamp"]
    assert main(argv + ["--out", str(out)] * to_file) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    csv = HEADER + "0,0,0.0,0.0,0.0\n"
    if to_file:
        assert out.read_text() == csv and captured.out == ""
    else:
        assert captured.out == csv


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_target_beyond_the_float_range_writes_no_csv(tmp_path, capsys, to_file):
    doc = _failing_doc()
    doc["a"]["terms"][1]["coeff"] = [1e200, 0.0]  # tau_s(a) = 1e200, times tau_u(b)
    path = tmp_path / "target.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trace.csv"
    argv = ["trace-run", "--config", str(path), "--no-timestamp"]
    assert main(argv + ["--out", str(out)] * to_file) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: tau_") and captured.out == ""
    assert not out.exists()
