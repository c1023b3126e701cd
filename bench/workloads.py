"""The four benchmark workloads: seeded inputs, one timed pass, and the
exact references every pass is checked against.

A sweep workload writes its config with ``cli.write_config`` and drives
``cli.main`` with the ``trace-run`` argv a user would type; the
``oracle-check`` workload calls the public ``rep`` functions.  The
references never go through the symbolic route in ``rep``: Fibonacci
numbers, path counts from an exact vector recurrence, and the brute-force
oracle at small k.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

from sfttrace import algebra, cli, fixtures, perron, points, rep, sft as sftmod

WHY = {
    "wide-sweep": "24-symbol random SFT: n x n exact matrix powers in sft.count_paths set the cost",
    "golden-long": "2x2 matrix, thousand-digit Fibonacci traces: big-integer products, log scaling, CSV rendering",
    "many-terms": "hundreds of term pairs per k on both branches: rep's pair loop and many small path counts",
    "oracle-check": "brute-force oracle against the symbolic trace: points enumeration and vector-by-vector operator application dominate",
}

SIZES = {
    "full": {
        "wide-sweep": {"n": 24, "degree": 12, "kmax": 40},
        "golden-long": {"kmax": 3000},
        "many-terms": {"terms": 24, "diagonal": 8, "kmax": 60},
        "oracle-check": {"kmax": 4},
    },
    "smoke": {
        "wide-sweep": {"n": 6, "degree": 3, "kmax": 8},
        "golden-long": {"kmax": 40},
        "many-terms": {"terms": 4, "diagonal": 2, "kmax": 6},
        "oracle-check": {"kmax": 2},
    },
}

# oracle spot checks of the wide sweep; the oracle's cost grows like degree^(2k)
WIDE_SPOT_KS = (0, 1, 2)

PINNED = Path(__file__).resolve().parent / "pinned.json"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def render_pairs(pairs) -> str:
    """The CSV rendering of a sum of (complex coefficient, count) pairs,
    summed exactly: integers in full, other values as float real part plus
    signed imaginary part."""
    pairs = list(pairs)
    re_part = sum((Fraction(c.real) * n for c, n in pairs), Fraction(0))
    im_part = sum((Fraction(c.imag) * n for c, n in pairs), Fraction(0))
    if im_part == 0 and re_part.denominator == 1:
        return str(re_part.numerator)
    z = complex(float(re_part), float(im_part))
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def path_counts(trans, start: int, max_len: int) -> list[list[int]]:
    """rows[L][j]: admissible paths of L steps from `start` to j, by the exact
    row-vector recurrence (independent of sft.count_paths)."""
    n = len(trans)
    succ = [[j for j in range(n) if trans[i][j]] for i in range(n)]
    row = [int(j == start) for j in range(n)]
    rows = [row]
    for _ in range(max_len):
        nxt = [0] * n
        for i, c in enumerate(row):
            if c:
                for j in succ[i]:
                    nxt[j] += c
        row = nxt
        rows.append(row)
    return rows


def _oracle_render(a, b, k, p, p_set, q_set) -> str:
    ora = rep.trace_product_oracle(a, b, k, rep.required_window(a, b, k), p, p_set, q_set)
    return render_pairs(ora.pairs)


def _pinned(workload: str, profile: str, key: str):
    doc = json.loads(PINNED.read_text())
    return doc.get(workload, {}).get(profile, {}).get(key)


class Sweep:
    """A trace-run workload; subclasses generate the config and the reference."""

    name = ""
    seeded = True
    extra_argv: list[str] = []

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.seed = seed
        self.profile = profile
        self.size = SIZES[profile][self.name]
        self.workdir = workdir
        self.csv = workdir / f"{self.name}-seed{seed}.csv"
        self.config = self.make_config()
        self.ks = list(range(0, self.size["kmax"] + 1))
        self.items = len(self.ks)
        self.argv = ["trace-run", "--config", str(self.config), "--out", str(self.csv),
                     "--no-timestamp"] + self.extra_argv
        self.record = {"config": self.config.name,
                       "config_sha256": sha256(self.config.read_bytes()),
                       "argv": ["sfttrace"] + self.argv}

    def probe_args(self) -> list[str]:
        return [str(self.config)]

    def timed_pass(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self.argv)
        return rc, out.getvalue()

    def collect(self, raw):
        """Outside the timed region: the exact k,trace columns this pass
        wrote, plus the float columns, which are recorded but not gated."""
        if raw is None:
            return (None, ()), {"cli.csv_bytes": 0}
        rc, stdout = raw
        try:
            text = self.csv.read_text()
            self.csv.unlink()
        except FileNotFoundError:
            text = ""
        rows = [line.split(",") for line in text.splitlines()[1:]]
        columns = tuple((r[0], r[1] if len(r) > 1 else "") for r in rows)
        last = rows[-1] if rows and len(rows[-1]) == 5 else [None] * 5
        rate = re.search(r"fitted error decay rate\s*=\s*(\S+)", stdout)
        info = {
            "cli.csv_bytes": len(text.encode()),
            "final_scaled": last[2],
            "final_abs_err": last[4],
            "fitted_decay_rate": rate.group(1) if rate else None,
        }
        return (rc, columns), info

    def check(self, outcomes: dict) -> dict:
        """Compare every distinct pass outcome with the reference; `outcomes`
        maps an outcome to the number of passes that produced it."""
        expected, spot = self.reference()
        attempted = failed = 0
        for (rc, columns), passes in outcomes.items():
            attempted += passes * self.items
            if rc != 0:
                failed += passes * self.items
                continue
            got = dict(columns)
            bad = sum(got.get(str(k)) != expected[k] for k in self.ks)
            bad += len(set(got) - {str(k) for k in self.ks})
            failed += passes * min(bad, self.items)
        attempted += len(spot)
        failed += sum(ok is False for ok in spot.values())
        _, columns = max(outcomes, key=outcomes.get)
        digest = sha256("\n".join(f"{k},{trace}" for k, trace in columns))
        pinned = _pinned(self.name, self.profile, str(self.seed) if self.seeded else "*")
        if pinned is not None:
            attempted += 1
            failed += digest != pinned
        return {"attempted": attempted, "failed": failed, "columns_sha256": digest,
                "pinned_sha256": pinned,
                "spot_checks": {str(k): ok for k, ok in spot.items()}}


class WideSweep(Sweep):
    """Canonical diagonal pair on the fixed point of symbol 0 of a seeded
    random mixing vertex shift in which every row and every column has
    `degree` ones, so lambda = degree, both Perron vectors are flat, and the
    path counts, hence the cost, hardly vary with the seed."""

    name = "wide-sweep"

    def make_config(self) -> Path:
        rng = random.Random(self.seed)
        n, d = self.size["n"], self.size["degree"]
        while True:
            # start from a band circulant (loops everywhere) and randomize it by
            # degree-preserving switches; the loop at symbol 0 is kept
            rows = [[int((j - i) % n < d) for j in range(n)] for i in range(n)]
            for _ in range(10 * n * d):
                i, k = rng.sample(range(n), 2)
                j = rng.choice([c for c in range(n) if rows[i][c]])
                m = rng.choice([c for c in range(n) if rows[k][c]])
                if rows[i][m] or rows[k][j] or (i, j) == (0, 0) or (k, m) == (0, 0):
                    continue
                rows[i][j] = rows[k][m] = 0
                rows[i][m] = rows[k][j] = 1
            shift = sftmod.make_sft(rows)
            if sftmod.is_mixing(shift):
                break
        orbits = points.make_orbit_set([[0]], shift)
        orbit = orbits.orbits[0]
        a = algebra.diagonal("stable", points.periodic_left_ray(shift, orbit, 0))
        b = algebra.diagonal("unstable", points.periodic_right_ray(shift, orbit, 0))
        self.shift, self.orbits, self.pair = shift, orbits, (a, b)
        path = self.workdir / f"{self.name}-seed{self.seed}.json"
        cli.write_config(cli.ExperimentConfig(shift, orbits, orbits, a, b,
                                              (0, self.size["kmax"]), {}, None), path)
        return path

    def reference(self):
        # trace of the canonical pair at k = paths of 2k + 1 steps from 0 to 0
        counts = path_counts(self.shift.trans, 0, 2 * self.ks[-1] + 1)
        expected = {k: str(counts[2 * k + 1][0]) for k in self.ks}
        p = perron.compute_perron(self.shift)
        spot = {k: _oracle_render(*self.pair, k, p, self.orbits, self.orbits) == expected[k]
                for k in WIDE_SPOT_KS if k in expected}
        return expected, spot


class GoldenLong(Sweep):
    """The shipped golden-mean config swept to a large kmax; the seed does
    not change the input."""

    name = "golden-long"
    seeded = False

    def make_config(self) -> Path:
        # the shipped config's k_range starts at 0; --kmax sets the last k
        self.extra_argv = ["--kmax", str(self.size["kmax"])]
        return Path(__file__).resolve().parent.parent / "configs" / "golden_mean.json"

    def reference(self):
        fib = [0, 1]
        while len(fib) < 2 * self.ks[-1] + 3:
            fib.append(fib[-1] + fib[-2])
        return {k: str(fib[2 * k + 2]) for k in self.ks}, {}


class ManyTerms(Sweep):
    """Seeded multi-term elements on three_symbol: `terms` terms per side,
    `diagonal` of them diagonal, windows in -2..2, dyadic complex coefficients."""

    name = "many-terms"

    def make_config(self) -> Path:
        rng = random.Random(self.seed)
        system = fixtures.three_symbol()
        self.system = system
        a = self._element(rng, system, "stable")
        b = self._element(rng, system, "unstable")
        self.pair = (a, b)
        path = self.workdir / f"{self.name}-seed{self.seed}.json"
        cli.write_config(cli.ExperimentConfig(system.sft, system.p_set, system.q_set, a, b,
                                              (0, self.size["kmax"]), {}, None), path)
        return path

    def _element(self, rng, system, side):
        """Exactly `terms` distinct terms, `diagonal` of them diagonal, each
        drawn with fixtures.random_element; a drawn term becomes diagonal by
        using its source ray on both sides."""
        bis_cls = algebra.StableBisection if side == "stable" else algebra.UnstableBisection
        want_diag = self.size["diagonal"]
        want_off = self.size["terms"] - want_diag
        diag: dict = {}
        off: dict = {}
        while len(diag) < want_diag or len(off) < want_off:
            for c, bis in fixtures.random_element(rng, system, side, 1).terms:
                if len(diag) < want_diag:
                    diag.setdefault(bis_cls(bis.source, bis.source), c)
                elif not bis.is_diagonal:
                    off.setdefault(bis, c)
        return algebra.element(side, [(c, bis) for bis, c in (*diag.items(), *off.items())])

    def reference(self):
        a, b = self.pair
        gap = max(e.window - f.window for _, e in a.terms for _, f in b.terms)
        k_bridge = max(0, math.ceil(gap / 2))
        # from k_bridge on every pair is in the bridge regime: a diagonal pair
        # contributes its coefficient times the paths from the stable source's
        # terminal symbol to the unstable source's initial symbol
        diag_pairs = [(ca * cb, e, f) for ca, e in a.terms if e.is_diagonal
                      for cb, f in b.terms if f.is_diagonal]
        max_len = 2 * self.ks[-1] + 1 + max((f.window - e.window for _, e, f in diag_pairs),
                                            default=0)
        trans = self.system.sft.trans
        counts = {s: path_counts(trans, s, max_len) for s in {e.source.terminal
                                                              for _, e, _ in diag_pairs}}
        sys_ = self.system
        expected = {}
        for k in self.ks:
            if k < k_bridge:
                # some pairs overlap; the brute-force oracle is the reference
                expected[k] = _oracle_render(a, b, k, sys_.perron, sys_.p_set, sys_.q_set)
            else:
                expected[k] = render_pairs(
                    (c, counts[e.source.terminal][f.window - e.window + 2 * k + 1]
                     [f.source.initial]) for c, e, f in diag_pairs)
        return expected, {}


class OracleCheck:
    """Every fixture system x shipped pair, trace_product against the
    brute-force oracle at required_window for k = 0..kmax; the seed does not
    change the input."""

    name = "oracle-check"

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.profile = profile
        kmax = SIZES[profile][self.name]["kmax"]
        self.cases = [(system, pair, a, b, k)
                      for system in fixtures.all_systems()
                      for pair, a, b in fixtures.fixture_pairs(system)
                      for k in range(kmax + 1)]
        self.items = len(self.cases)
        self.record = {"cases": self.items, "kmax": kmax}

    def probe_args(self) -> list[str]:
        return ["fixtures"]

    def timed_pass(self):
        results = []
        for system, _, a, b, k in self.cases:
            try:
                sym = rep.trace_product(a, b, k, system.perron)
                ora = rep.trace_product_oracle(a, b, k, rep.required_window(a, b, k),
                                               system.perron, system.p_set, system.q_set)
                results.append((sym == ora, ora))
            except Exception as exc:  # an item that raises counts as failed
                results.append((False, repr(exc)))
        return results

    def collect(self, raw):
        if raw is None:
            raw = [(False, "error")] * self.items
        return tuple(
            (ok, ora if isinstance(ora, str) else render_pairs(ora.pairs)) for ok, ora in raw
        ), {"cli.csv_bytes": 0}

    def check(self, outcomes: dict) -> dict:
        attempted = failed = 0
        for results, passes in outcomes.items():
            attempted += passes * self.items
            failed += passes * sum(not ok for ok, _ in results)
        results = max(outcomes, key=outcomes.get)
        digest = sha256("\n".join(f"{s.name},{pair},{k},{tr}"
                                  for (s, pair, _, _, k), (_, tr) in zip(self.cases, results)))
        pinned = _pinned(self.name, self.profile, "*")
        if pinned is not None:
            attempted += 1
            failed += digest != pinned
        return {"attempted": attempted, "failed": failed, "traces_sha256": digest,
                "pinned_sha256": pinned}


WORKLOADS = {w.name: w for w in (WideSweep, GoldenLong, ManyTerms, OracleCheck)}


def make(name: str, seed: int, profile: str, workdir: Path):
    return WORKLOADS[name](seed, profile, workdir)
