"""Command-line interface: config ingestion and experiment drivers.

Subcommands:
  inspect    eigen-data, entropy, mixing status, 1-cylinder masses
  measures   cylinder masses and traces for the configured elements
  enumerate  heteroclinic points up to a window
  trace-run  scaled-trace CSV plus a convergence summary
  theorem13  finite-rank product, vanishing-product and commutator checks
  verify     the acceptance battery (exit 3 on any failure)

Exit codes: 0 success, 2 config/validation error or a failed write to
standard output, 3 numerical failure, 4 resource cap exceeded.

Every subcommand but verify reads the config named by --config, a JSON
document:

  {
    "sft": {"symbols": ["0", "1"], "matrix": [[1, 1], [1, 0]]},
    "P": [["0"]],            # forward orbit set: list of cyclic words
    "Q": [["0"]],            # backward orbit set
    "a": {"side": "stable", "terms": [
        {"coeff": [1.0, 0.0],
         "target_ray": {"orbit": ["0"], "phase": 0, "body": []},
         "source_ray": {"orbit": ["0"], "phase": 0, "body": []},
         "window": 0}]},
    "b": {"side": "unstable", "terms": [...]},
    "k_range": [0, 15],
    "tolerances": {"final_abs_err": 1e-7},
    "output": "trace.csv"
  }

A key outside those shown is read by nothing and exits 2, so a misspelt
field cannot pass silently.  "symbols" may be left out, which names the
symbols "0", ..., "n-1"; a label is a JSON string and matches exactly, so
"00" or the number 0 is not the label "0".  A ray's "orbit" and "body" are
lists of labels.  A stable term's rays fix coordinates below
the window (the body occupies [window - len(body), window)); an unstable
term's rays fix coordinates from the window on (body on
[window, window + len(body))).  a is the stable element and b the
unstable one; stable rays must run over orbits of Q, unstable rays over
orbits of P.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .algebra import (
    BISECTIONS,
    AlgebraElement,
    element,
    tau_s,
    tau_u,
)
from .perron import (
    NoConvergence,
    NonFiniteCoefficient,
    NotPrimitive,
    compute_perron,
    entropy,
    mu_bowen,
    require_finite,
)
from .points import (
    PeriodicOrbitSet,
    WindowOverflow,
    enumerate_heteroclinic,
    make_left_ray,
    make_orbit,
    make_orbit_set,
    make_right_ray,
)
from .rep import format_complex, scaled_trace_sequence
from .sft import Sft, make_sft
from .values import Value

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_RESOURCE = 4


class ParseError(ValueError):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


class ValidationError(ValueError):
    pass


class ExperimentConfig(Value):
    _fields = ("sft", "p_set", "q_set", "a", "b", "k_range", "tolerances", "output")

    def __init__(self, sft: Sft, p_set: PeriodicOrbitSet, q_set: PeriodicOrbitSet,
                 a: AlgebraElement, b: AlgebraElement, k_range: tuple[int, int],
                 tolerances: dict, output: str | None):
        self.__dict__.update(sft=sft, p_set=p_set, q_set=q_set, a=a, b=b, k_range=k_range,
                             tolerances=tolerances, output=output)

    def doc(self) -> dict:
        """The normalized JSON document (canonical ray forms)."""
        lab = self.sft.label
        return {
            "sft": {
                "symbols": [lab(i) for i in range(self.sft.n)],
                "matrix": [list(row) for row in self.sft.trans],
            },
            "P": [[lab(s) for s in o.word] for o in self.p_set.orbits],
            "Q": [[lab(s) for s in o.word] for o in self.q_set.orbits],
            "a": _element_doc(self.a, lab),
            "b": _element_doc(self.b, lab),
            "k_range": list(self.k_range),
            "tolerances": dict(sorted(self.tolerances.items())),
            "output": self.output,
        }


# the fields `ExperimentConfig.doc` writes at each level; a config field
# outside them is read by nothing, so a misspelt key is refused rather than
# silently switching off what it names
_FIELDS = {
    "config": ("sft", "P", "Q", "a", "b", "k_range", "tolerances", "output"),
    "sft": ("symbols", "matrix"),
    "tolerances": ("final_abs_err",),
    "element": ("side", "terms"),
    "term": ("coeff", "target_ray", "source_ray", "window"),
    "ray": ("orbit", "phase", "body"),
}


def _known_fields(doc: dict, level: str, where: str = "") -> None:
    """ValidationError naming the first key of `doc` that `_FIELDS[level]`
    does not list; `where` prefixes the key in the message."""
    for key in doc:
        if key not in _FIELDS[level]:
            raise ValidationError(f"unknown field '{where}{key}'")


def _ray_doc(ray, lab) -> dict:
    return {"orbit": [lab(q) for q in ray.orbit.word],
            "phase": ray.phase,
            "body": [lab(q) for q in ray.body]}


def _element_doc(x: AlgebraElement, lab) -> dict:
    terms = [
        {"coeff": [c.real, c.imag],
         "target_ray": _ray_doc(bis.target, lab),
         "source_ray": _ray_doc(bis.source, lab),
         "window": bis.window}
        for c, bis in x.terms
    ]
    return {"side": x.side, "terms": terms}


# the JSON types each kind of field may hold, as json.loads gives them
_KINDS = {
    "object": (dict,),
    "list": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "string or null": (str, type(None)),
}
_REQUIRED = object()


def _field(doc: dict, key: str, kind: str, default=_REQUIRED, where: str = ""):
    """doc[key], or `default` when the key is absent; ValidationError when
    it is absent without a default or is not a JSON value of `kind`.
    `where` prefixes the field name in the message."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValidationError(f"missing field '{where}{key}'")
        return default
    # type() rather than isinstance(): a bool is an int to isinstance
    if type(doc[key]) not in _KINDS[kind]:
        raise ValidationError(f"{where}{key} must be a JSON {kind}")
    return doc[key]


def _finite_float(value, field: str) -> float:
    """A JSON number as a finite float; a bool, a string, an infinity, a nan
    or an integer too large for a float is a ValidationError."""
    if type(value) not in _KINDS["number"]:
        raise ValidationError(f"{field} must be a JSON number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{field} must be finite")
    return x


def _parse_orbit_set(sft, words, field) -> PeriodicOrbitSet:
    if not all(isinstance(w, list) for w in words):
        raise ValidationError(f"{field}: each orbit must be a list of symbol labels")
    try:
        return make_orbit_set(
            [[sft.symbol_of(lab) for lab in w] for w in words], sft
        )
    except ValueError as exc:
        # unknown labels and empty, imprimitive or inadmissible orbits
        raise ValidationError(f"{field}: {exc}") from exc


def _parse_ray(sft, doc, side, orbit_set, window, field):
    _known_fields(doc, "ray", f"{field}.")
    labels = _field(doc, "orbit", "list", where=f"{field}.")
    word = tuple(sft.symbol_of(lab) for lab in labels)
    # the set's words are minimal rotations, as `write_config` writes them;
    # another rotation of a set orbit is that orbit, so every ray over it
    # shares one object; any other word is refused, with the reason
    # `make_orbit` gives when it is no orbit at all
    orbits = {o.word: o for o in orbit_set.orbits}
    orbit = orbits.get(word) or orbits.get(make_orbit(word).word)
    if orbit is None:
        make_orbit(word, sft)
        raise ValidationError(
            f"{field}: orbit {labels} not in the {'Q' if side == 'stable' else 'P'} orbit set")
    body = tuple(sft.symbol_of(lab) for lab in _field(doc, "body", "list", where=f"{field}."))
    phase = _field(doc, "phase", "integer", 0, f"{field}.")
    if side == "stable":
        return make_left_ray(sft, orbit, phase, window - len(body), body, window)
    return make_right_ray(sft, orbit, phase, window, body, window + len(body))


def _parse_element(sft, doc, side, orbit_set, field) -> AlgebraElement:
    _known_fields(doc, "element", f"{field}.")
    if _field(doc, "side", "string", where=f"{field}.") != side:
        raise ValidationError(f"{field}: side must be '{side}'")
    terms = []
    for i, term in enumerate(_field(doc, "terms", "list", [], f"{field}.")):
        where = f"{field}.terms[{i}]"
        try:
            if type(term) is not dict:
                raise ValidationError(f"{where} must be a JSON object")
            _known_fields(term, "term", f"{where}.")
            parts = _field(term, "coeff", "list", where=f"{where}.")
            if len(parts) != 2:
                raise ValidationError(f"{where}.coeff must be [real, imag]")
            coeff = complex(*(_finite_float(x, f"{where}.coeff") for x in parts))
            window = _field(term, "window", "integer", where=f"{where}.")
            rays = [_parse_ray(sft, _field(term, key, "object", where=f"{where}."),
                               side, orbit_set, window, f"{where}.{key}")
                    for key in ("target_ray", "source_ray")]
            terms.append((coeff, BISECTIONS[side](*rays)))
        except ValidationError:
            raise
        except ValueError as exc:
            # unknown labels, inadmissible orbits or rays, mismatched bisections
            raise ValidationError(f"{where}: {exc}") from exc
    return element(side, terms)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document; all admissibility checks run eagerly."""
    if not isinstance(doc, dict) or not doc:
        raise ValidationError("empty config document")
    _known_fields(doc, "config")
    sft_doc = _field(doc, "sft", "object")
    _known_fields(sft_doc, "sft", "sft.")
    matrix = _field(sft_doc, "matrix", "list", where="sft.")
    if not all(isinstance(row, list) for row in matrix):
        raise ValidationError("sft.matrix must be a list of rows")
    symbols = _field(sft_doc, "symbols", "list", None, "sft.")
    try:
        sft = make_sft(matrix, symbols)
    except ValueError as exc:
        # InvalidMatrix or ZeroRowOrColumn
        raise ValidationError(f"sft: {exc}") from exc
    p_set = _parse_orbit_set(sft, _field(doc, "P", "list", []), "P")
    q_set = _parse_orbit_set(sft, _field(doc, "Q", "list", []), "Q")
    if not p_set.orbits or not q_set.orbits:
        raise ValidationError("P and Q must each contain at least one orbit")
    a = _parse_element(sft, _field(doc, "a", "object", {"side": "stable"}), "stable", q_set, "a")
    b = _parse_element(sft, _field(doc, "b", "object", {"side": "unstable"}), "unstable",
                       p_set, "b")
    k_range = _field(doc, "k_range", "list", [0, 10])
    if (len(k_range) != 2 or not all(type(k) is int for k in k_range)
            or not 0 <= k_range[0] <= k_range[1]):
        raise ValidationError(
            "k_range must be [first, last] with integers 0 <= first <= last")
    tolerances = _field(doc, "tolerances", "object", {})
    _known_fields(tolerances, "tolerances", "tolerances.")
    for key in tolerances:
        # a nan tolerance would compare False against every error and switch its gate off
        if not 0 <= _field(tolerances, key, "number", where="tolerances.") < math.inf:
            raise ValidationError(f"tolerances.{key} must be finite and >= 0")
    return ExperimentConfig(sft, p_set, q_set, a, b,
                            (k_range[0], k_range[1]),
                            dict(tolerances),
                            _field(doc, "output", "string or null", None))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc
    return parse_config(doc)


def write_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_inspect(config: ExperimentConfig, args) -> int:
    sft = config.sft
    try:
        p = compute_perron(sft)
    except NotPrimitive:
        print("not mixing: the transition matrix is not primitive; no Perron data")
        return EXIT_VALIDATION
    print(f"symbols   : {[sft.label(i) for i in range(sft.n)]}")
    print(f"mixing    : True")
    print(f"lambda    : {p.lam!r}")
    print(f"entropy   : {entropy(p)!r}")
    print(f"v (right) : {[round(x, 12) for x in p.v]}")
    print(f"u (left)  : {[round(x, 12) for x in p.u]}")
    print(f"residual  : {p.residual:.3e}")
    for i in range(sft.n):
        print(f"mu[{sft.label(i)}]     : {mu_bowen(p, (i,))!r}")
    return EXIT_OK


def cmd_measures(config: ExperimentConfig, args) -> int:
    p = compute_perron(config.sft)
    sft = config.sft
    print("1-cylinder masses:")
    for i in range(sft.n):
        print(f"  [{sft.label(i)}] {mu_bowen(p, (i,))!r}")
    print("2-cylinder masses:")
    for i in range(sft.n):
        for j in range(sft.n):
            if sft.allowed(i, j):
                print(f"  [{sft.label(i)}{sft.label(j)}] {mu_bowen(p, (i, j))!r}")
    ts = tau_s(config.a, p)
    tu = tau_u(config.b, p)
    print(f"tau_s(a) = {format_complex(ts)}")
    print(f"tau_u(b) = {format_complex(tu)}")
    target = require_finite(ts * tu, "tau_s(a) * tau_u(b)")
    print(f"tau_s(a) * tau_u(b) = {format_complex(target)}")
    return EXIT_OK


def cmd_enumerate(config: ExperimentConfig, args) -> int:
    window = args.window
    if window < 0:
        raise ValidationError(f"--window {window} is negative")
    pts = enumerate_heteroclinic(config.sft, config.p_set, config.q_set, window)
    print(f"{len(pts)} heteroclinic points with canonical window inside "
          f"[-{window}, {window}]")
    for z in pts[:200]:
        print(f"  {z.render(config.sft)}")
    if len(pts) > 200:
        print(f"  ... ({len(pts) - 200} more)")
    return EXIT_OK


def cmd_trace_run(config: ExperimentConfig, args) -> int:
    k_lo, k_hi = config.k_range
    if args.kmax is not None:
        if args.kmax < k_lo:
            raise ValidationError(f"--kmax {args.kmax} is below the first k ({k_lo}) of k_range")
        k_hi = args.kmax
    p = compute_perron(config.sft)
    if config.a.is_zero or config.b.is_zero:
        raise ValidationError("trace runs need nonzero elements a and b")
    report = scaled_trace_sequence(config.a, config.b, range(k_lo, k_hi + 1), p)
    path = args.out or config.output
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                if not args.no_timestamp:
                    # imported on use, like `operators` in `cmd_theorem13`:
                    # a run without the timestamp does not load it
                    import datetime

                    now = datetime.datetime.now(datetime.timezone.utc)
                    fh.write(f"# generated {now.isoformat()}\n")
                zeros = report.write_csv(fh)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
        print(f"wrote {path} ({len(report.rows)} rows)")
    else:
        zeros = report.write_csv(sys.stdout)
    print(f"target tau_s(a)*tau_u(b) = {format_complex(report.target)}")
    print(f"final abs error          = {report.final_error()!r}")
    rate = report.fitted_decay_rate()
    if not math.isnan(rate):
        print(f"fitted error decay rate  = {rate:.6g} per step")
    if zeros and zeros[-1]:
        first_zero = len(zeros) - 1
        while first_zero > 0 and zeros[first_zero - 1]:
            first_zero -= 1
        print(f"exact-zero regime: every trace vanishes for k >= {report.rows[first_zero].k}")
    tol = config.tolerances.get("final_abs_err")
    if tol is not None and report.rows and report.final_error() > tol:
        print(f"FAIL final error {report.final_error():.3e} > {tol:g}")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_theorem13(config: ExperimentConfig, args) -> int:
    # imported on use, like `acceptance` in `cmd_verify`: no other subcommand
    # needs the finite operators, so none pays to load them
    from .operators import commutator_decay, product_operator, vanishing_product_check

    nmax = args.nmax
    if nmax < 0:
        raise ValidationError(f"--nmax {nmax} is negative")
    p = compute_perron(config.sft)
    a, b = config.a, config.b
    t_ab = product_operator(a, b, p, "ab")
    t_ba = product_operator(a, b, p, "ba")
    print(f"rank(a.b) = {t_ab.rank()}, rank(b.a) = {t_ba.rank()} (finite rank)")
    if config.p_set.isdisjoint(config.q_set):
        print("shifted products (disjoint orbit sets):")
        for n, nab, nba in vanishing_product_check(a, b, p, config.p_set, config.q_set,
                                                   nmax, (t_ab, t_ba)):
            print(f"  n={n:<3} |a_n.b| = {nab!r}  |b.a_n| = {nba!r}")
    else:
        print("orbit sets are not disjoint; skipping the vanishing-product check")
    print("commutator decay:")
    for n, norm in commutator_decay(a, b, p, range(0, nmax + 1)):
        print(f"  n={n:<3} |[a_n, b_n]| = {norm!r}")
    return EXIT_OK


def cmd_verify() -> int:
    from . import acceptance

    rows = acceptance.run_all()
    for row in rows:
        print(row.line())
    if not all(row.passed for row in rows):
        print("FAILURES")
        return EXIT_NUMERICAL
    print("all criteria passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfttrace",
        description="groupoid algebras and trace asymptotics for shifts of finite type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        # each subcommand carries its handler; `main` calls it with the parsed
        # arguments and the config they name
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True,
                        help="path to the JSON experiment config")
        sp.set_defaults(handler=lambda args: handler(load_config(args.config), args))
        return sp

    add("inspect", cmd_inspect, "print eigen-data, entropy, and 1-cylinder masses")
    add("measures", cmd_measures, "print cylinder masses and element traces")
    sp = add("enumerate", cmd_enumerate, "list heteroclinic points up to a window")
    sp.add_argument("--window", type=int, default=3)
    sp = add("trace-run", cmd_trace_run, "write the scaled-trace CSV and a summary")
    sp.add_argument("--out", default=None, help="CSV output path (overrides config)")
    sp.add_argument("--kmax", type=int, default=None, help="override the last k")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp comment for byte-identical output")
    sp = add("theorem13", cmd_theorem13, "finite-rank, vanishing-product and commutator checks")
    sp.add_argument("--nmax", type=int, default=10)
    sub.add_parser("verify", help="run the acceptance battery").set_defaults(
        handler=lambda args: cmd_verify())
    return parser


def _drop_stdout() -> None:
    """Point standard output's file descriptor at the null device, so that
    the interpreter's flush at exit does not meet the failed output again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _run(args) -> int:
    """The subcommand's exit code, with each documented error as one line."""
    try:
        return args.handler(args)
    except (ParseError, ValidationError, NotPrimitive) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoConvergence, NonFiniteCoefficient) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WindowOverflow as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        # a reader that closed standard output early, or a full disk, shows
        # here, not in the interpreter's flush at exit
        sys.stdout.flush()
    except OSError as exc:
        # the config and CSV files turn their own OSErrors into ParseError
        # and ValidationError, so one that gets here is a failed write to
        # standard output: a closed pipe (BrokenPipeError), a full disk, ...
        _drop_stdout()
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
