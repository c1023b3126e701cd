"""What a command loads, shared by the start-up audits of `test_cli` and
`test_exports`: each command runs once per session in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfttrace

SRC = Path(sfttrace.__file__).resolve().parent.parent
GOLDEN_MEAN = str(SRC.parent / "configs" / "golden_mean.json")

# standard-library modules that nothing before a trace's first row uses:
# `statistics` and what it loads, and `datetime`
DEFERRED = ("statistics", "fractions", "decimal", "numbers", "random", "datetime")

COMMAND = "from sfttrace.cli import main\nassert main(sys.argv[1:]) == 0"
# what the benchmark's probe times before a workload's first item
BENCH_SET_UP = ("from sfttrace import cli, fixtures, perron\n"
                "perron.compute_perron(cli.load_config(sys.argv[1]).sft)")


def _loads(cwd: Path, body: str, *args: str) -> tuple[set, list]:
    """Run `body` with `args` in a fresh interpreter in `cwd`, its output to
    the null device, and return (the sfttrace modules, and `dataclasses`,
    `inspect` and `typing` if loaded, when it ends; the modules of DEFERRED
    it loaded after `import argparse, json`, which every command runs
    first).  The interpreter runs without `site` (-S), which may load some
    of these itself (`typing`, or `random` through a .pth file)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import argparse, json, sys\n"
              "before = set(sys.modules)\n"
              f"{body}\n"
              "with open('loads.json', 'w') as fh:\n"
              "    json.dump([[m for m in sys.modules if m.partition('.')[0] == 'sfttrace'\n"
              "                or m in ('dataclasses', 'inspect', 'typing')],\n"
              f"               [m for m in {DEFERRED!r}\n"
              "                if m in sys.modules and m not in before]], fh)\n")
    done = subprocess.run([sys.executable, "-S", "-c", script, *args], env=env, cwd=cwd,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    modules, deferred = json.loads((cwd / "loads.json").read_text())
    return set(modules), deferred


@pytest.fixture(scope="session")
def loads(tmp_path_factory):
    """A function of a command's arguments, run through `cli.main` on the
    golden mean (`verify` takes no config), or of None, the benchmark
    probe's set-up on it, that returns `_loads` of that run, made once per
    session."""
    made: dict = {}

    def run(argv=None):
        key = None if argv is None else tuple(argv)
        if key not in made:
            cwd = tmp_path_factory.mktemp("loads")
            if argv is None:
                made[key] = _loads(cwd, BENCH_SET_UP, GOLDEN_MEAN)
            else:
                config = [] if key == ("verify",) else ["--config", GOLDEN_MEAN]
                made[key] = _loads(cwd, COMMAND, *argv, *config)
        return made[key]

    return run
