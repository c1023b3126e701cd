"""The package's public names load their modules on use and stay the
modules' own objects; a bare `import sfttrace` loads no module, and no
command loads a standard-library module that only other commands use."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sfttrace

SRC = Path(sfttrace.__file__).resolve().parent.parent
README = SRC.parent / "README.md"

# every public name of the package, with the module that defines it
EXPORTS = {
    **dict.fromkeys([
        "AlgebraElement", "SideMismatch", "StableBisection", "UnstableBisection",
        "apply_alpha", "convolve", "diagonal", "element", "involute", "refine",
        "tau_s", "tau_u", "trace_property_check",
    ], "algebra"),
    **dict.fromkeys([
        "NoConvergence", "NonFiniteCoefficient", "NotPrimitive", "PerronData",
        "compute_perron", "entropy", "mu_bowen",
    ], "perron"),
    **dict.fromkeys([
        "HeteroclinicPoint", "LeftRay", "Orbit", "PeriodicOrbitSet", "RightRay",
        "WindowOverflow", "bracket", "enumerate_heteroclinic", "make_left_ray",
        "make_orbit", "make_orbit_set", "make_right_ray", "shift_point",
    ], "points"),
    **dict.fromkeys([
        "ExactTrace", "TraceReport", "WindowTooSmall", "scaled_trace_sequence",
        "trace_product", "trace_product_oracle",
    ], "rep"),
    **dict.fromkeys([
        "FiniteOperator", "OrbitsNotDisjoint", "apply_element", "commutator_decay",
        "operator_norm", "product_operator", "vanishing_product_check",
    ], "operators"),
    **dict.fromkeys([
        "Sft", "count_paths", "is_admissible", "is_mixing", "make_sft",
    ], "sft"),
}


def _run(script: str, cwd, *args: str) -> str:
    """Standard output of `script` with `args` in a fresh interpreter that
    imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_public_name_is_its_modules_object():
    assert len(EXPORTS) == 51
    for name, module in EXPORTS.items():
        namespace: dict = {}
        exec(f"from sfttrace import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"sfttrace.{module}"), name)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="'nope'"):
        sfttrace.nope
    with pytest.raises(ImportError):
        from sfttrace import nope  # noqa: F401


def test_bare_import_loads_no_module_and_reaches_each_on_use(tmp_path):
    script = ("import sys\n"
              "import sfttrace\n"
              "print(sorted(m for m in sys.modules if m.startswith('sfttrace.')))\n"
              "for name in ('algebra', 'perron', 'points', 'rep', 'sft'):\n"
              "    print(getattr(sfttrace, name).__name__)\n")
    out = _run(script, tmp_path).splitlines()
    assert out == ["[]", "sfttrace.algebra", "sfttrace.perron", "sfttrace.points",
                   "sfttrace.rep", "sfttrace.sft"]


def test_readme_library_sketch_runs(tmp_path):
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert 0 <= float(_run(sketch.group(1), tmp_path)) < 1e-12


def test_bench_set_up_loads_no_deferred_module(loads):
    # what the benchmark's probe times before a workload's first item
    _, deferred = loads()
    assert deferred == []


# theorem13 and verify are left out: the exact rank of a finite operator
# eliminates with `Fraction` pivots, and the acceptance battery draws its
# random elements from a seeded `random.Random`
@pytest.mark.parametrize("argv,deferred_loads", [
    (["inspect"], []),
    (["measures"], []),
    (["enumerate", "--window", "3"], []),
    (["trace-run", "--no-timestamp"], []),
    (["trace-run"], ["datetime"]),  # the CSV's first line is the time of the run
], ids=["inspect", "measures", "enumerate", "trace-run-no-timestamp", "trace-run"])
def test_each_command_loads_only_the_deferred_modules_it_runs(loads, argv, deferred_loads):
    _, deferred = loads(argv)
    assert deferred == deferred_loads
