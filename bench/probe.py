"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 probe.py SRC_DIR (CONFIG | fixtures)

Set-up is what a user pays before the first item: importing sfttrace, then
either loading a config and computing its Perron data (which runs
``is_mixing``), or building the fixture systems and their shipped pairs.
Prints the elapsed seconds.
"""

import sys
import time


def main(src: str, target: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from sfttrace import cli, fixtures, perron

    if target == "fixtures":
        for system in fixtures.all_systems():
            fixtures.fixture_pairs(system)
    else:
        perron.compute_perron(cli.load_config(target).sft)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
