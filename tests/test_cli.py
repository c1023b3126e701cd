import json
import math
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sfttrace.cli import (
    ParseError,
    ValidationError,
    load_config,
    main,
    parse_config,
    write_config,
)

GOLDEN_DOC = {
    "sft": {"symbols": ["0", "1"], "matrix": [[1, 1], [1, 0]]},
    "P": [["0"]],
    "Q": [["0"]],
    "a": {"side": "stable", "terms": [
        {"coeff": [1.0, 0.0],
         "target_ray": {"orbit": ["0"], "phase": 0, "body": []},
         "source_ray": {"orbit": ["0"], "phase": 0, "body": []},
         "window": 0}]},
    "b": {"side": "unstable", "terms": [
        {"coeff": [1.0, 0.0],
         "target_ray": {"orbit": ["0"], "phase": 0, "body": []},
         "source_ray": {"orbit": ["0"], "phase": 0, "body": []},
         "window": 0}]},
    "k_range": [0, 12],
    "tolerances": {"final_abs_err": 1e-08},
    "output": None,
}


# leading key of a `test_config_bad_field_exits_2` case whose config has no
# "symbols", so that its symbols are named "0", ..., "n-1"
NO_SYMBOLS = "no-symbols"


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_golden(tmp_path):
    config = load_config(write_doc(tmp_path, GOLDEN_DOC))
    assert config.sft.n == 2
    assert config.a.side == "stable"
    assert config.k_range == (0, 12)


def test_load_config_missing_file():
    with pytest.raises(ParseError):
        load_config("/nonexistent/config.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ParseError) as exc:
        load_config(str(path))
    assert exc.value.line == 2


def test_config_forbidden_orbit(tmp_path):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["P"] = [["1"]]  # 1 -> 1 is forbidden on the golden mean
    with pytest.raises(ValidationError):
        load_config(write_doc(tmp_path, doc))


def test_config_orbit_not_in_set(tmp_path):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["target_ray"]["orbit"] = ["0", "1"]
    with pytest.raises(ValidationError):
        load_config(write_doc(tmp_path, doc))


@pytest.mark.parametrize("word, message", [
    (["0", "1"], "a.terms[0].source_ray: orbit ['0', '1'] not in the Q orbit set"),
    (["1"], "a.terms[0]: cyclic word (1,) not admissible"),
    (["0", "0"], "a.terms[0]: (0, 0) is not primitive"),
    (["1", "0"], "a.terms[0].source_ray: orbit ['1', '0'] not in the Q orbit set"),
    ([], "a.terms[0]: empty cyclic word"),
], ids=["not-in-set", "inadmissible", "not-primitive", "rotation-not-in-set", "empty"])
def test_config_ray_orbit_errors_exit_2(tmp_path, capsys, word, message):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["source_ray"]["orbit"] = word
    assert main(["inspect", "--config", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_empty_orbit_word_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["P"] = [[]]
    assert main(["inspect", "--config", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: P: empty cyclic word\n"


def test_trace_run_on_an_element_without_terms_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["b"]["terms"] = []
    config = load_config(write_doc(tmp_path, doc))
    assert config.b.is_zero
    assert main(["trace-run", "--config", write_doc(tmp_path, doc), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == "error: trace runs need nonzero elements a and b\n"


def test_config_rays_share_the_orbit_set_orbits(tmp_path):
    for config in (load_config(str(CONFIG_DIR / "golden_mean.json")),
                   load_config(_three_symbol_mixed_config(tmp_path / "mixed.json")),
                   load_config(_three_symbol_many_terms_config(tmp_path / "many.json"))):
        for x, orbit_set in ((config.a, config.q_set), (config.b, config.p_set)):
            by_word = {o.word: o for o in orbit_set.orbits}
            for _, t in x.terms:
                for ray in (t.target, t.source):
                    assert ray.orbit is by_word[ray.orbit.word]


def test_config_parse_checks_each_orbit_once(tmp_path, monkeypatch):
    # an orbit keeps the matrix it passed in, so the rays over the orbit sets
    # check each set orbit once; a right ray checks its own orbit, so no P
    # orbit's time reversal is built or checked in the transpose
    import sys

    from sfttrace import points

    path = _three_symbol_many_terms_config(tmp_path / "many.json")
    admissible, checked = points.is_admissible, []

    def counted(sft, word):
        caller = sys._getframe(1)
        if caller.f_code is points.Orbit.validate.__code__:
            checked.append(caller.f_locals["self"])
        return admissible(sft, word)

    monkeypatch.setattr(points, "is_admissible", counted)
    config = load_config(path)
    assert len(config.a.terms) == len(config.b.terms) == 12
    assert not any("reversal" in o.__dict__ for o in config.p_set.orbits)
    assert sorted(map(id, checked)) == sorted(map(id, (*config.p_set.orbits,
                                                       *config.q_set.orbits)))


@pytest.mark.parametrize("side,orbit,phase,message", [
    ("a", ["0"], 0, "a.terms[0]: ray body breaks admissibility"),
    ("a", ["0", "1"], 1, "a.terms[0]: ray body breaks admissibility"),
    ("a", ["0"], 1, "a.terms[0]: phase out of range"),
    ("b", ["0"], 0, "b.terms[0]: ray body breaks admissibility"),
    ("b", ["0", "1"], 1, "b.terms[0]: ray body breaks admissibility"),
    ("b", ["0"], 1, "b.terms[0]: phase out of range"),
])
def test_inadmissible_ray_over_a_checked_orbit(side, orbit, phase, message):
    # the orbit passed with its set; the ray's own body and phase still fail
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["P"] = doc["Q"] = [["0"], ["0", "1"]]
    doc[side]["terms"][0]["source_ray"].update(orbit=orbit, phase=phase, body=["1", "1"])
    with pytest.raises(ValidationError) as info:
        parse_config(doc)
    assert str(info.value) == message


def test_config_ray_over_a_rotation_of_a_set_orbit(tmp_path):
    # P holds the golden mean's period-2 orbit, written from its 1; the rays
    # name it from either symbol and all resolve to the one set orbit
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["P"] = [["1", "0"]]
    doc["b"]["terms"][0]["target_ray"]["orbit"] = ["0", "1"]
    doc["b"]["terms"][0]["source_ray"]["orbit"] = ["1", "0"]
    config = load_config(write_doc(tmp_path, doc))
    (orbit,) = config.p_set.orbits
    assert orbit.word == (0, 1)
    ((_, term),) = config.b.terms
    assert term.target.orbit is orbit and term.source.orbit is orbit
    doc["b"]["terms"][0]["source_ray"]["orbit"] = ["0", "1"]
    assert load_config(write_doc(tmp_path, doc, "minimal.json")).b == config.b
    # a period-3 orbit, written in the set and named by a ray from other
    # symbols than its least rotation
    doc["P"] = [["0", "1", "0"]]
    doc["b"]["terms"][0]["source_ray"]["orbit"] = ["1", "0", "0"]
    doc["b"]["terms"][0]["target_ray"]["orbit"] = ["0", "0", "1"]
    config = load_config(write_doc(tmp_path, doc, "period-3.json"))
    (orbit,) = config.p_set.orbits
    ((_, term),) = config.b.terms
    assert orbit.word == (0, 0, 1) and term.source.orbit is orbit


def _long_orbit_doc(words):
    """The full 2-shift whose Q is one seeded 3000-symbol orbit, with a
    diagonal stable term per word in `words`: two rays naming that word."""
    import random

    from sfttrace.points import make_orbit

    rng = random.Random(3000)
    least = make_orbit([rng.randrange(2) for _ in range(3000)]).word
    terms = [{"coeff": [1.0, 0.0], "window": 0,
              **{key: {"orbit": [str(s) for s in word(least)], "phase": i, "body": []}
                 for key in ("target_ray", "source_ray")}}
             for i, word in enumerate(words)]
    return {"sft": {"matrix": [[1, 1], [1, 1]]}, "P": [["0"]], "Q": [[str(s) for s in least]],
            "a": {"side": "stable", "terms": terms}}


def test_rays_over_a_long_orbit_hold_no_rotations(tmp_path):
    # the rays take the set's orbit by its word, or canonicalize a rotation
    # in one linear scan, so 24 rays peak within 2 MB of no ray; a
    # table of every rotation held 3000 ** 2 symbols, about 70 MB.  A child's
    # peak counts the memory of the process it was spawned from, so each
    # run is spawned from a fresh parent, which reports the child's peak
    import os
    import subprocess
    import sys

    import sfttrace

    src = str(Path(sfttrace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import resource, subprocess, sys\n"
              "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    least = [lambda word: word] * 12
    rotated = [lambda word, k=k: word[k:] + word[:k] for k in range(1, 3000, 250)]
    peak = {}
    for name, words in (("none", []), ("least", least), ("rotated", rotated)):
        path = write_doc(tmp_path, _long_orbit_doc(words), f"{name}.json")
        done = subprocess.run([sys.executable, "-c", script, sys.executable, "-m",
                               "sfttrace.cli", "inspect", "--config", path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        peak[name] = int(done.stdout.split()[-1])  # kilobytes on Linux
    assert peak["least"] - peak["none"] < 2048 and peak["rotated"] - peak["none"] < 2048, peak


def test_config_empty_rejected():
    with pytest.raises(ValidationError):
        parse_config({})


@pytest.mark.parametrize("k_range", [[5, 2], [-3, 5], [0, "5"]],
                         ids=["reversed", "negative", "string"])
def test_config_bad_k_range(tmp_path, k_range):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["k_range"] = k_range
    with pytest.raises(ValidationError):
        load_config(write_doc(tmp_path, doc))


@pytest.mark.parametrize("keys, value", [
    (("a", "terms", 0, "source_ray", "body"), ["x"]),
    (("b", "terms", 0, "source_ray", "body"), ["0", "2"]),
    (("tolerances",), [1]),
    (("tolerances",), {"final_abs_err": "small"}),
    (("sft",), [1]),
    (("sft", "matrix"), [[1, "x"], [1, 0]]),
    (("a",), []),
    (("b", "terms"), 5),
    (("P",), 5),
    (("Q",), [None]),
    (("output",), 5),
    (("sft", "matrix"), [[1.5, 1], [1, 0]]),
    (("sft", "matrix"), [[True, 1], [1, 0]]),
    (("sft", "symbols"), ["0", "0"]),
    (("a", "terms", 0, "coeff"), [math.inf, 0]),
    (("b", "terms", 0, "coeff"), [0, math.nan]),
    (("a", "terms", 0, "window"), 0.9),
    (("b", "terms", 0, "window"), True),
    (("a", "terms", 0, "target_ray", "phase"), 0.5),
    (("tolerances", "final_abs_err"), math.nan),
    (("tolerances", "final_abs_err"), math.inf),
    (("tolerances", "final_abs_err"), -1e-8),
    (("a", "terms", 0, "coeff"), [True, False]),
    (("b", "terms", 0, "coeff"), [1, 0, 5]),
    (("a", "terms", 0, "coeff"), [10 ** 400, 0]),
    (("a", "side"), "unstable"),
    (("b", "side"), "stable"),
    (("tolerances", "final_abs_error"), 1e-30),
    (("tolerance",), {"final_abs_err": 1e-30}),
    (("a", "terms", 0, "windw"), 0),
    (("b", "terms", 0, "source_ray", "phse"), 0),
    (("a", "sides"), "stable"),
    (("sft", "symbol"), ["0", "1"]),
    ((NO_SYMBOLS, "P", 0, 0), "+0"),
    ((NO_SYMBOLS, "P", 0, 0), " 0"),
    ((NO_SYMBOLS, "Q", 0, 0), "00"),
    ((NO_SYMBOLS, "a", "terms", 0, "target_ray", "orbit", 0), 0),
    ((NO_SYMBOLS, "P", 0), [["0"]]),
    (("a", "terms", 0, "target_ray", "orbit"), "0"),
    (("a", "terms", 0, "source_ray", "body"), "10"),
    (("sft", "symbols"), [0, 1]),
    (("sft", "matrix"), [1, 1]),
    (("P",), []),
], ids=["stable-label", "unstable-label", "tolerance-list", "tolerance-string",
        "sft-list", "matrix-entry", "a-list", "terms-number", "P-number", "Q-orbit-null",
        "output-number", "matrix-float", "matrix-bool", "symbols-duplicate",
        "coeff-infinity", "coeff-nan", "window-float", "window-bool", "phase-float",
        "tol-nan", "tol-inf", "tol-negative", "coeff-bool", "coeff-length", "coeff-huge-int",
        "a-side-unstable", "b-side-stable", "tolerances-typo", "tolerance-typo",
        "term-typo", "ray-typo", "element-typo", "sft-typo",
        "unlabelled-plus-zero", "unlabelled-space-zero", "unlabelled-double-zero",
        "unlabelled-number-zero", "unlabelled-orbit-of-lists", "ray-orbit-string",
        "ray-body-string", "symbols-numbers", "matrix-not-rows", "P-empty"])
def test_config_bad_field_exits_2(tmp_path, capsys, keys, value):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    if keys[0] == NO_SYMBOLS:
        del doc["sft"]["symbols"]
        keys = keys[1:]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = write_doc(tmp_path, doc)
    with pytest.raises(ValidationError):
        load_config(path)
    assert main(["trace-run", "--config", path, "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_fields_are_those_doc_writes(tmp_path, capsys):
    from sfttrace.cli import _FIELDS

    doc = load_config(write_doc(tmp_path, GOLDEN_DOC)).doc()
    term = doc["a"]["terms"][0]
    levels = {"config": doc, "sft": doc["sft"], "tolerances": doc["tolerances"],
              "element": doc["a"], "term": term, "ray": term["target_ray"]}
    assert {level: set(node) for level, node in levels.items()} == {
        level: set(keys) for level, keys in _FIELDS.items()}
    typo = json.loads(json.dumps(GOLDEN_DOC))
    typo["tolerances"] = {"final_abs_error": 1e-30}
    assert main(["trace-run", "--config", write_doc(tmp_path, typo), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown field 'tolerances.final_abs_error'\n"
    assert captured.out == ""


def test_config_without_matrix_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    del doc["sft"]["matrix"]
    path = write_doc(tmp_path, doc)
    with pytest.raises(ValidationError, match="matrix"):
        load_config(path)
    assert main(["trace-run", "--config", path, "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_round_trip(tmp_path):
    config = load_config(write_doc(tmp_path, GOLDEN_DOC))
    out1 = tmp_path / "round1.json"
    write_config(config, str(out1))
    config2 = load_config(str(out1))
    assert config2 == config
    out2 = tmp_path / "round2.json"
    write_config(config2, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_config_without_symbols_round_trip(tmp_path):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    del doc["sft"]["symbols"]
    config = load_config(write_doc(tmp_path, doc))
    assert config.sft.labels == ("0", "1")
    out = tmp_path / "round.json"
    write_config(config, str(out))
    assert load_config(str(out)) == config
    assert config == load_config(write_doc(tmp_path, GOLDEN_DOC))


def _json_values():
    # every kind of JSON value, the edge cases of each among them: huge and
    # negative integers, non-finite floats, labels that read as a number
    text = st.text("01 +-x", max_size=3) | st.sampled_from(["stable", "unstable"])
    scalars = (st.none() | st.booleans()
               | st.integers() | st.sampled_from([10 ** 30, -1, 0, 1])
               | st.floats() | text)
    keys = text | st.sampled_from(["side", "terms", "orbit", "body", "window"])
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(keys, inner, max_size=3),
                        max_leaves=4)


def _nodes(node, path=()):
    """(path, value) of every node of a parsed JSON document, the root included."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _fuzzed_configs(integers=False):
    """One or two nodes of a shipped config, or of the same config without
    its "symbols", set to a random JSON value, as (config text, edits).
    Half the edits land on a symbol label, the most numerous free-form
    input.  With `integers`, an edit may also set a term's window to any
    integer, huge ones and those whose leaf mass leaves the float range
    among them."""
    values = _json_values()
    any_integer = st.integers() | st.sampled_from([-1500, 1500, 10 ** 9, -10 ** 9, 10 ** 18])
    cases = []
    for name in ("golden_mean.json", "full_shift.json"):
        doc = json.loads((CONFIG_DIR / name).read_text())
        del doc["output"]
        unlabelled = json.loads(json.dumps(doc))
        del unlabelled["sft"]["symbols"]
        for base in (doc, unlabelled):
            nodes = list(_nodes(base))
            labels = [path for path, value in nodes if type(value) is str and path[-1] != "side"]
            node = st.sampled_from(labels) | st.sampled_from([path for path, _ in nodes])
            edit = st.tuples(node, values)
            if integers:
                windows = [path for path, _ in nodes if path[-1:] == ("window",)]
                edit |= st.tuples(st.sampled_from(windows), any_integer)
            cases.append(st.tuples(st.just(json.dumps(base)),
                                   st.lists(edit, min_size=1, max_size=2)))
    return st.one_of(cases)


def _run_fuzzed(case, path, argv):
    """Write the edited config to `path`, run `main` on it with `argv`, and
    return (exit code, stderr)."""
    import contextlib
    import io

    text, edits = case
    doc = json.loads(text)
    # deeper edits first, so that an edit never lands inside a node that
    # another edit has replaced
    for keys, value in sorted(edits, key=lambda e: -len(e[0])):
        if not keys:
            doc = value
            continue
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", path])
    return code, err.getvalue()


def test_config_fuzz_inspect_exits_cleanly(tmp_path):
    # a fuzzed shipped config: inspect ends in 0, 2 or 3 with at most one
    # line on stderr, never in an exception
    path = str(tmp_path / "fuzz.json")

    @seed(20261019)
    @settings(max_examples=100, database=None, deadline=None)
    @given(_fuzzed_configs())
    def run(case):
        code, err = _run_fuzzed(case, path, ["inspect"])
        assert code in (0, 2, 3), (code, err)
        assert err.count("\n") <= 1 and "Traceback" not in err

    run()


def test_config_fuzz_trace_run_and_measures_exit_cleanly(tmp_path):
    # a fuzzed shipped config: trace-run to k = 2 and measures end in a
    # documented exit code with at most one line on stderr, never in an
    # exception; a huge window, which the fuzz draws, costs no more than a
    # small one
    path = str(tmp_path / "fuzz.json")

    @seed(20261019)
    @settings(max_examples=100, database=None, deadline=None)
    @given(_fuzzed_configs(integers=True),
           st.sampled_from([["trace-run", "--kmax", "2"], ["measures"]]))
    def run(case, argv):
        code, err = _run_fuzzed(case, path, argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert err.count("\n") <= 1 and "Traceback" not in err

    run()


@pytest.mark.parametrize("command", ["measures", "trace-run"])
@pytest.mark.parametrize("side,window", [("a", -1500), ("b", 1500)])
def test_leaf_mass_beyond_float_range_exits_3(tmp_path, capsys, command, side, window):
    # a stable window far below 0, or an unstable one far above, needs a
    # power of lambda beyond the float range for its leaf mass: one
    # numerical-failure line and exit 3, no traceback
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc[side]["terms"][0]["window"] = window
    assert main([command, "--config", write_doc(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_trace_run_far_stable_window(tmp_path, capsys):
    # the golden mean with a stable window of 10^9: every pair up to k = 2
    # overlaps across a gap of 10^9 coordinates, and each is decided from
    # the rays' structure, not coordinate by coordinate
    import time

    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["window"] = 10 ** 9
    doc["k_range"] = [0, 2]
    doc["tolerances"] = {}
    start = time.perf_counter()
    assert main(["trace-run", "--config", write_doc(tmp_path, doc), "--no-timestamp"]) == 0
    assert time.perf_counter() - start < 1.0
    rows = capsys.readouterr().out.splitlines()[1:4]
    assert [row.split(",")[:2] for row in rows] == [["0", "1"], ["1", "1"], ["2", "1"]]


@pytest.mark.parametrize("command", ["measures", "trace-run"])
@pytest.mark.parametrize("coeffs,window", [((1e300, 1.0), -1400), ((1e200, 1e200), 0)])
def test_element_trace_beyond_float_range_exits_3(tmp_path, capsys, command, coeffs, window):
    # tau_s(a) beyond the float range (a coefficient of 1e300 on a leaf mass
    # of about 1e292), or two finite element traces whose product is not:
    # one numerical-failure line and exit 3, not an inf target
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["coeff"] = [coeffs[0], 0.0]
    doc["b"]["terms"][0]["coeff"] = [coeffs[1], 0.0]
    doc["a"]["terms"][0]["window"] = window
    doc["tolerances"] = {}
    argv = [command, "--config", write_doc(tmp_path, doc)]
    assert main(argv + ["--no-timestamp"] * (command == "trace-run")) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: tau_") and captured.err.count("\n") == 1
    assert "inf" not in captured.out and "nan" not in captured.out


def test_trace_run_into_a_closed_pipe_exits_2_with_one_line(tmp_path):
    # the reader takes the header and closes the pipe, as `| head -1` does:
    # one error line, exit 2, and no traceback or flush-at-exit message
    import os
    import subprocess
    import sys

    import sfttrace

    doc = json.loads((CONFIG_DIR / "golden_mean.json").read_text())
    del doc["output"], doc["tolerances"]
    src = str(Path(sfttrace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    # about 2 MB of CSV, far more than a pipe holds
    argv = [sys.executable, "-c", "import sys; from sfttrace.cli import main; sys.exit(main())",
            "trace-run", "--config", write_doc(tmp_path, doc), "--no-timestamp",
            "--kmax", "3000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        assert proc.stdout.readline() == "k,trace,scaled,target,abs_err\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 2, err
    assert err == "error: cannot write standard output: Broken pipe\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["inspect", "trace-run"])
def test_stdout_on_a_full_disk_exits_2_with_one_line(tmp_path, command, unbuffered):
    # every write to /dev/full fails with ENOSPC: at the first print when
    # standard output is unbuffered, at the flush after the subcommand when
    # it is buffered; either way one error line, exit 2, no traceback
    import os
    import subprocess
    import sys

    import sfttrace

    doc = json.loads((CONFIG_DIR / "golden_mean.json").read_text())
    del doc["output"]
    src = str(Path(sfttrace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, "-c", "import sys; from sfttrace.cli import main; sys.exit(main())",
            command, "--config", write_doc(tmp_path, doc)]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv + ["--no-timestamp"] * (command == "trace-run"), env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


def test_cli_inspect(tmp_path, capsys):
    code = main(["inspect", "--config", write_doc(tmp_path, GOLDEN_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "entropy" in out
    phi = (1 + math.sqrt(5)) / 2
    assert f"{math.log(phi):.4f}"[:6] in out
    assert "0.7236" in out


def test_cli_inspect_not_primitive(tmp_path, capsys):
    doc = {
        "sft": {"symbols": ["0", "1"], "matrix": [[0, 1], [1, 0]]},
        "P": [["0", "1"]],
        "Q": [["0", "1"]],
        "a": {"side": "stable", "terms": []},
        "b": {"side": "unstable", "terms": []},
        "k_range": [0, 2],
    }
    code = main(["inspect", "--config", write_doc(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 2
    assert "not mixing" in out


def test_cli_enumerate(tmp_path, capsys):
    code = main(["enumerate", "--config", write_doc(tmp_path, GOLDEN_DOC),
                 "--window", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("3 heteroclinic points")


def test_cli_enumerate_negative_window_exits_2(tmp_path, capsys):
    code = main(["enumerate", "--config", write_doc(tmp_path, GOLDEN_DOC),
                 "--window", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --window -1 is negative\n"
    assert captured.out == ""


def test_cli_enumerate_past_the_cap_exits_4(capsys):
    import time

    start = time.perf_counter()
    code = main(["enumerate", "--config", str(CONFIG_DIR / "full_shift.json"),
                 "--window", "12"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("resource cap: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert elapsed < 1.0


def test_cli_measures(tmp_path, capsys):
    code = main(["measures", "--config", write_doc(tmp_path, GOLDEN_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tau_s(a) * tau_u(b)" in out


def test_cli_trace_run_csv_deterministic(tmp_path, capsys):
    config_path = write_doc(tmp_path, GOLDEN_DOC)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["trace-run", "--config", config_path, "--out", str(out1),
                 "--no-timestamp"]) == 0
    assert main(["trace-run", "--config", config_path, "--out", str(out2),
                 "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "k,trace,scaled,target,abs_err"
    assert len(lines) == 14
    # k = 1 row: trace Fib(4) = 3
    assert lines[2].startswith("1,3,")


def test_cli_trace_run_kmax_below_first_k(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code = main(["trace-run", "--config", write_doc(tmp_path, GOLDEN_DOC), "--kmax", "-4",
                 "--out", str(out), "--no-timestamp"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --kmax -4 ")
    assert not out.exists()


def test_cli_trace_run_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "trace.csv"
    code = main(["trace-run", "--config", write_doc(tmp_path, GOLDEN_DOC),
                 "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_cli_no_convergence_exits_3(tmp_path, capsys, monkeypatch):
    from sfttrace import perron

    monkeypatch.setattr(perron, "ITERATION_CAP", 1)
    code = main(["inspect", "--config", write_doc(tmp_path, GOLDEN_DOC)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_cli_overflowing_coefficient_product_exits_3(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["coeff"] = [1e308, 0.0]
    doc["b"]["terms"][0]["coeff"] = [1e308, 0.0]
    code = main(["trace-run", "--config", write_doc(tmp_path, doc), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_trace_run_tiny_coefficient_is_kept(tmp_path, capsys):
    # a coefficient far below 1 is a term like any other, not a rounding residue
    from fractions import Fraction

    from sfttrace.perron import compute_perron
    from sfttrace.rep import scaled_trace_sequence

    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["coeff"] = [1e-20, 0]
    doc["tolerances"] = {}
    path = write_doc(tmp_path, doc)
    assert main(["trace-run", "--config", path, "--no-timestamp"]) == 0
    config = load_config(path)
    report = scaled_trace_sequence(config.a, config.b, range(0, 13), compute_perron(config.sft))
    fib = [0, 1]
    while len(fib) < 2 * 12 + 3:
        fib.append(fib[-1] + fib[-2])
    for row in report.rows:
        assert row.trace.exact_total() == (Fraction(1e-20) * fib[2 * row.k + 2], 0)


def test_cli_trace_run_prints_totals_beyond_float_range_exactly(tmp_path, capsys):
    # half of F(2k+2) is not an integer and passes the float range at k = 739
    from fractions import Fraction

    doc = json.loads((CONFIG_DIR / "golden_mean.json").read_text())
    doc["a"]["terms"][0]["coeff"] = [0.5, 0.0]
    out = tmp_path / "trace.csv"
    assert main(["trace-run", "--config", write_doc(tmp_path, doc), "--out", str(out),
                 "--no-timestamp", "--kmax", "3000"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert not any("inf" in cell for row in rows for cell in row)
    fib = [0, 1]
    while len(fib) < 2 * 3000 + 3:
        fib.append(fib[-1] + fib[-2])
    assert rows[-1][0] == "3000"
    assert Fraction(rows[-1][1]) == Fraction(fib[6002], 2)
    assert rows[738][1] == repr(fib[1478] / 2) and "." in rows[739][1]


@pytest.mark.parametrize("coeff", [1.0, 0.5])
def test_cli_trace_run_prints_traces_past_the_digit_limit(tmp_path, capsys, coeff):
    # F(3202) has 669 digits: with the interpreter's int-to-string limit
    # lowered to 640, every trace still prints in full, byte for byte
    import sys

    doc = json.loads((CONFIG_DIR / "golden_mean.json").read_text())
    doc["a"]["terms"][0]["coeff"] = [coeff, 0.0]
    config = write_doc(tmp_path, doc)
    outputs = []
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            out = tmp_path / f"trace-{digits}.csv"
            assert main(["trace-run", "--config", config, "--out", str(out),
                         "--no-timestamp", "--kmax", "1600"]) == 0
            outputs.append(out.read_bytes())
    finally:
        sys.set_int_max_str_digits(limit)
    assert outputs[0] == outputs[1]
    assert len(outputs[1].splitlines()[-1].split(b",")[1]) > 640


def test_cli_trace_run_timestamp_header(tmp_path):
    config_path = write_doc(tmp_path, GOLDEN_DOC)
    out = tmp_path / "t.csv"
    assert main(["trace-run", "--config", config_path, "--out", str(out)]) == 0
    assert out.read_text().startswith("# generated ")


def test_cli_trace_run_tolerance_failure(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["k_range"] = [0, 2]
    doc["tolerances"] = {"final_abs_err": 1e-12}
    code = main(["trace-run", "--config", write_doc(tmp_path, doc),
                 "--out", str(tmp_path / "x.csv"), "--no-timestamp"])
    assert code == 3


def test_cli_trace_run_offdiagonal_regime(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    # source past deviates from the zero pattern at index -2
    doc["a"]["terms"][0]["source_ray"]["body"] = ["1", "0"]
    doc["tolerances"] = {}
    code = main(["trace-run", "--config", write_doc(tmp_path, doc),
                 "--out", str(tmp_path / "z.csv"), "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact-zero regime" in out


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_cli_trace_run_complex_coefficients(tmp_path, capsys):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["a"]["terms"][0]["coeff"] = [0.25, 0.5]
    doc["tolerances"] = {}
    doc["k_range"] = [0, 4]
    out = tmp_path / "c.csv"
    code = main(["trace-run", "--config", write_doc(tmp_path, doc),
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    # k = 1: trace = (0.25 + 0.5j) * 3
    assert lines[2].split(",")[1] == "0.75+1.5j"


def test_cli_theorem13_disjoint(tmp_path, capsys):
    full_doc = json.loads((CONFIG_DIR / "full_shift.json").read_text())
    code = main(["theorem13", "--config", write_doc(tmp_path, full_doc),
                 "--nmax", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rank(a.b) = 1, rank(b.a) = 1" in out
    assert "n=6" in out


def test_cli_theorem13_shared_orbits_skips_vanishing(tmp_path, capsys):
    code = main(["theorem13", "--config", write_doc(tmp_path, GOLDEN_DOC),
                 "--nmax", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "not disjoint" in out
    assert "commutator decay" in out


def test_cli_theorem13_on_a_large_product_has_no_traceback(tmp_path, capsys):
    # the three-symbol mixed pair with the stable element at alpha^12: each
    # product has 23,427 rows and 48,919 columns, one entry per column, and
    # its columns fit the symbol budget.  A dense matrix of this shape needs
    # 17 GiB; the sparse rank and norm build none.
    from sfttrace.algebra import apply_alpha
    from sfttrace.cli import ExperimentConfig
    from sfttrace.fixtures import mixed_pair, three_symbol

    sys = three_symbol()
    a, b = mixed_pair(sys)
    path = str(tmp_path / "alpha12.json")
    write_config(ExperimentConfig(sys.sft, sys.p_set, sys.q_set, apply_alpha(a, 12), b,
                                  (0, 4), {}, None), path)
    code = main(["theorem13", "--config", path, "--nmax", "0"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == 4:
        assert captured.err.startswith("resource cap: ") and captured.err.count("\n") == 1
    else:
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("rank(a.b) = 23427, rank(b.a) = 23427 (finite rank)\n")
        # the float nearest each product's norm
        assert ("  n=0   |a_n.b| = 0.755836663902989  |b.a_n| = 0.755836663902989\n"
                in captured.out)


def test_cli_theorem13_product_beyond_float_range_exits_3(tmp_path, capsys):
    # each coefficient is finite, but their product 1e400 is not a float
    from sfttrace.algebra import element
    from sfttrace.cli import ExperimentConfig
    from sfttrace.fixtures import canonical_pair, full_shift

    sys = full_shift()
    a, b = (element(x.side, [(1e200, t) for _, t in x.terms]) for x in canonical_pair(sys))
    path = str(tmp_path / "huge.json")
    write_config(ExperimentConfig(sys.sft, sys.p_set, sys.q_set, a, b, (0, 4), {}, None), path)
    code = main(["theorem13", "--config", path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "numerical failure: an operator entry exceeds the float range\n"


def test_cli_theorem13_norm_beyond_float_range_exits_3(tmp_path, capsys):
    # the three-symbol mixed pair at alpha^4, scaled by 2^1000 * 2.6e7: each
    # entry is at most 1.6e308, a float, but the rows' norms are 2.1e308
    from sfttrace.algebra import apply_alpha, element
    from sfttrace.cli import ExperimentConfig
    from sfttrace.fixtures import mixed_pair, three_symbol

    sys = three_symbol()
    a, b = mixed_pair(sys)
    a = element("stable", [(c * 2.0 ** 1000, t) for c, t in apply_alpha(a, 4).terms])
    b = element("unstable", [(c * 2.6e7, t) for c, t in b.terms])
    path = str(tmp_path / "wide.json")
    write_config(ExperimentConfig(sys.sft, sys.p_set, sys.q_set, a, b, (0, 4), {}, None), path)
    code = main(["theorem13", "--config", path, "--nmax", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "numerical failure: an operator norm exceeds the float range\n"


def test_cli_theorem13_negative_nmax_exits_2(tmp_path, capsys):
    code = main(["theorem13", "--config", write_doc(tmp_path, GOLDEN_DOC),
                 "--nmax", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --nmax -1 is negative\n"
    assert captured.out == ""


def test_cli_theorem13_past_the_column_budget_exits_4(tmp_path, capsys):
    # 4-symbol full shift, stable window 0 against unstable window 16: the
    # bridge is within the width cap but has 4^16 columns, counted (not
    # enumerated) before anything is built
    import time

    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["sft"] = {"symbols": ["0", "1", "2", "3"], "matrix": [[1] * 4] * 4}
    doc["b"]["terms"][0]["window"] = 16
    start = time.perf_counter()
    code = main(["theorem13", "--config", write_doc(tmp_path, doc), "--nmax", "0"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("resource cap: ") and captured.err.count("\n") == 1
    assert str(4 ** 16 * 17) in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


def test_cli_verify(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all criteria passed" in out
    assert out.count("pass") >= 8


def test_cli_verify_with_a_failing_criterion_exits_3(capsys, monkeypatch):
    from sfttrace import acceptance

    row = acceptance.CheckRow("AC-0", "a check that fails", False, "1", "0", 0.25)
    monkeypatch.setattr(acceptance, "CRITERIA", [lambda: row])
    assert main(["verify"]) == 3
    assert capsys.readouterr().out == f"{row.line()}\nFAILURES\n"


def test_shipped_configs_load():
    for name in ("golden_mean.json", "full_shift.json"):
        config = load_config(str(CONFIG_DIR / name))
        assert not config.a.is_zero and not config.b.is_zero


def _three_symbol_mixed_config(path):
    from sfttrace.cli import ExperimentConfig
    from sfttrace.fixtures import mixed_pair, three_symbol

    sys = three_symbol()
    a, b = mixed_pair(sys)
    write_config(ExperimentConfig(sys.sft, sys.p_set, sys.q_set, a, b, (0, 20), {}, None),
                 str(path))
    return str(path)


def _three_symbol_many_terms_config(path):
    # 12 x 12 seeded terms on windows -2..2, four diagonal per side, swept to
    # k = 40: the overlap regime hands over to the bridge regime at k = 2
    import random

    from sfttrace.algebra import element
    from sfttrace.cli import ExperimentConfig
    from sfttrace.fixtures import random_element, three_symbol

    sys = three_symbol()
    rng = random.Random(1)

    def draw(side):
        terms = {}
        while len(terms) < 12:
            for c, t in random_element(rng, sys, side, 1).terms:
                if len(terms) < 4:
                    t = type(t)(t.source, t.source)
                elif t.is_diagonal:
                    continue
                terms.setdefault(t, c)
        return element(side, [(c, t) for t, c in terms.items()])

    a, b = draw("stable"), draw("unstable")
    write_config(ExperimentConfig(sys.sft, sys.p_set, sys.q_set, a, b, (0, 40), {}, None),
                 str(path))
    return str(path)


# sha256 of `trace-run --no-timestamp` output; any change in a trace, its
# scaling or its formatting shows up here.  The golden mean run to k = 3000
# pins the log-scaling route and traces thousands of digits long.
GOLDEN_CSV_SHA256 = {
    "golden_mean.json": "a164b8149758720f5cc5e68dc020f74dd37b1877dfdcd07baa39c035ca62c685",
    "full_shift.json": "ef8247a1613b33e983ea53eb9036a49ade5f050b341acf42f4f04dbe1a876436",
    "three_symbol_mixed": "ad6a2aa1025d4a8aedc30b4e2ed5532abcdad64249973074ea6c6ae6933d0f02",
    "golden_mean.json-kmax3000":
        "e8e50ff32360fcbb22fc708043b9d9a026419c4ef5b6f575746b525ce5e4e7eb",
    "three_symbol_many_terms":
        "9e5fc241643b3b22ee591114f8f194eeed29bb8997f04844d1bcb79d30236468",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_trace_run_csv_digest(tmp_path, capsys, name):
    import hashlib

    config, _, kmax = name.partition("-kmax")
    if config.endswith(".json"):
        config_path = str(CONFIG_DIR / config)
    elif config == "three_symbol_many_terms":
        config_path = _three_symbol_many_terms_config(tmp_path / "many.json")
    else:
        config_path = _three_symbol_mixed_config(tmp_path / "mixed.json")
    out = tmp_path / "trace.csv"
    assert main(["trace-run", "--config", config_path, "--out", str(out),
                 "--no-timestamp", *(["--kmax", kmax] if kmax else [])]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[name]


def test_trace_run_sums_each_exact_total_once(tmp_path, capsys, monkeypatch):
    # the CSV and the exact-zero check share one total per row: one pass
    # that sums the real and the imaginary part together
    from sfttrace import rep

    calls = []
    numerators = rep.ExactTrace._numerators
    monkeypatch.setattr(rep.ExactTrace, "_numerators",
                        lambda trace: calls.append(1) or numerators(trace))
    assert main(["trace-run", "--config", str(CONFIG_DIR / "golden_mean.json"),
                 "--out", str(tmp_path / "trace.csv"), "--no-timestamp"]) == 0
    rows = len((tmp_path / "trace.csv").read_text().splitlines()) - 1
    assert rows == 16 and len(calls) == rows


def test_trace_run_stdout_and_zero_regime(tmp_path, capsys):
    # full shift, an off-diagonal pair whose only roundtrip fixed point is at
    # k = 0: without an output path the CSV goes to stdout before the summary
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["sft"]["matrix"] = [[1, 1], [1, 1]]
    doc["a"]["terms"][0]["window"] = 3
    doc["a"]["terms"][0]["source_ray"]["body"] = ["0", "1", "0"]
    doc["b"]["terms"][0]["target_ray"]["body"] = ["0", "1", "0"]
    doc["k_range"] = [0, 4]
    doc["tolerances"] = {}
    assert main(["trace-run", "--config", write_doc(tmp_path, doc), "--no-timestamp"]) == 0
    assert capsys.readouterr().out == (
        "k,trace,scaled,target,abs_err\n"
        "0,1,1.0,0.0,1.0\n"
        + "".join(f"{k},0,0.0,0.0,0.0\n" for k in range(1, 5))
        + "target tau_s(a)*tau_u(b) = 0.0\n"
        "final abs error          = 0.0\n"
        "exact-zero regime: every trace vanishes for k >= 1\n")


def test_trace_run_zero_regime_of_cancelling_terms(tmp_path, capsys):
    # full shift: a's two diagonal terms, with coefficients 1 and -1, each
    # form a bridge pair with b's, and their path counts cancel, so every
    # row is 0 although no fixed-point set is empty
    from sfttrace.perron import compute_perron
    from sfttrace.rep import trace_product_detail
    from sfttrace.sft import count_paths

    ray = {"orbit": ["1"], "body": ["0"]}
    doc = {
        "sft": {"matrix": [[1, 1], [1, 1]]}, "P": [["0"]], "Q": [["1"]],
        "a": {"side": "stable", "terms": [
            {"coeff": [1.0, 0.0], "target_ray": ray, "source_ray": ray, "window": 0},
            {"coeff": [-1.0, 0.0], "target_ray": {"orbit": ["1"], "body": []},
             "source_ray": {"orbit": ["1"], "body": []}, "window": 0}]},
        "b": {"side": "unstable", "terms": [
            {"coeff": [1.0, 0.0], "target_ray": {"orbit": ["0"], "body": []},
             "source_ray": {"orbit": ["0"], "body": []}, "window": 0}]},
        "k_range": [0, 3],
    }
    path = write_doc(tmp_path, doc)
    assert main(["trace-run", "--config", path, "--no-timestamp"]) == 0
    assert capsys.readouterr().out == (
        "k,trace,scaled,target,abs_err\n"
        + "".join(f"{k},0,0.0,0.0,0.0\n" for k in range(4))
        + "target tau_s(a)*tau_u(b) = 0.0\n"
        "final abs error          = 0.0\n"
        "exact-zero regime: every trace vanishes for k >= 0\n")
    config = load_config(path)
    p = compute_perron(config.sft)
    for k in range(4):
        diagnostics = trace_product_detail(config.a, config.b, k, p)[1]
        assert (diagnostics.bridge_pairs, diagnostics.overlap_pairs) == (2, 0)
        for _, e in config.a.terms:
            for _, f in config.b.terms:
                assert e.is_diagonal and f.is_diagonal
                assert count_paths(config.sft, e.source.terminal, f.source.initial,
                                   2 * k + 1) == 4 ** k


# sha256 of `enumerate` stdout for the shipped configs at windows 0..5; any
# change in the points, their order or their rendering shows up here
ENUMERATE_SHA256 = {
    ("golden_mean.json", 0): "8b8d9780ae10f13836e737c620b308aeeca962417ad29f490a820179a1e7962b",
    ("golden_mean.json", 1): "7aa529eb51af995c48adccbf72b025d2c4f2c1f342d9bace7e54564840a0eed2",
    ("golden_mean.json", 2): "0c477ab68a403c98f7b744e8f36f817b0f59a91ac2ce1e0fa436b665fdde7da2",
    ("golden_mean.json", 3): "6a3520001129e35de82574da761cd8bc7adbc665205bb539333da73925bace5c",
    ("golden_mean.json", 4): "5003ba8b457fb27d089dc7ee97b7875d73855d76c76511bb22e7c0ad1f5e81bd",
    ("golden_mean.json", 5): "01666f17487d53188ae9265da708a88ebe10c5e935dacd2316cf82ea08a5d1e5",
    ("full_shift.json", 0): "7c7cda442641d87656c83d865afcf361a1b672131082a4f71cd0088d71f3c04f",
    ("full_shift.json", 1): "05ed8ff7eb1b42a695e42f07015cf289fd3e85f151e43a4a73f9edd496596fed",
    ("full_shift.json", 2): "62016865432faddd424aab6404a48cf8d2f77d5cbafdafeaa7e633950f511d8d",
    ("full_shift.json", 3): "b4c1240816a89441290d12346fdb70b77f0a64f6a212a5048b324c9ca3d99075",
    ("full_shift.json", 4): "eb701bf593d3eac5fe50f914a954c3279e7ecffaceb97bd5a3e41dde139f9563",
    ("full_shift.json", 5): "b80bddf06a9c90b8db5f45ba6fbc0a5b813c361ef0c00a2c46d91e75e9dae2f6",
}


@pytest.mark.parametrize("name, window", sorted(ENUMERATE_SHA256),
                         ids=lambda v: str(v).removesuffix(".json"))
def test_enumerate_digest(capsys, name, window):
    import hashlib

    assert main(["enumerate", "--config", str(CONFIG_DIR / name),
                 "--window", str(window)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[name, window]


# sha256 of `theorem13 --nmax 10` stdout for the shipped configs: ranks,
# shifted-product norms and commutator norms, byte for byte
THEOREM13_SHA256 = {
    "full_shift.json": "f7af19b45a7728d6dff71f36f5614b198a29e8bdecf9977782740bad6dfd71d7",
    "golden_mean.json": "363cf0dbb7410bfa6297797c746daf8ec48ddef22c7a523886eb66f101a083a5",
}


@pytest.mark.parametrize("name", sorted(THEOREM13_SHA256))
def test_theorem13_digest(capsys, name):
    import hashlib

    assert main(["theorem13", "--config", str(CONFIG_DIR / name), "--nmax", "10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == THEOREM13_SHA256[name]


def test_no_numpy_at_run_time():
    # a fresh interpreter imports the package and runs the acceptance battery
    import os
    import subprocess
    import sys

    import sfttrace

    src = str(Path(sfttrace.__file__).resolve().parent.parent)
    script = ("import sys, sfttrace, sfttrace.cli\n"
              "code = sfttrace.cli.main(['verify'])\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(" pass ") == 8


# each command with the modules of these two that it loads: `operators`
# holds the finite-rank products of theorem13, `acceptance` the battery of
# verify, and no other command loads either
COMMAND_MODULES = [
    (["inspect"], set()),
    (["measures"], set()),
    (["enumerate", "--window", "3"], set()),
    (["trace-run", "--no-timestamp"], set()),
    (["theorem13", "--nmax", "2"], {"sfttrace.operators"}),
    (["verify"], {"sfttrace.operators", "sfttrace.acceptance"}),
]


def _loaded_modules(tmp_path, script, *args):
    """The sfttrace modules, and `dataclasses`, `inspect` and `typing` if
    loaded, that a fresh interpreter running `script` with `args` in
    `tmp_path` has loaded when it ends; its output goes to the null device.
    The interpreter runs without `site` (-S), which may load `typing` first."""
    import os
    import subprocess
    import sys

    import sfttrace

    src = str(Path(sfttrace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script += ("\nimport json, sys\n"
               "with open('modules.json', 'w') as fh:\n"
               "    json.dump([m for m in sys.modules if m.partition('.')[0] == 'sfttrace'\n"
               "               or m in ('dataclasses', 'inspect', 'typing')], fh)\n")
    done = subprocess.run([sys.executable, "-S", "-c", script, *args], env=env, cwd=tmp_path,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads((tmp_path / "modules.json").read_text()))


@pytest.mark.parametrize("argv,needs", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, needs):
    script = "import sys\nfrom sfttrace.cli import main\nassert main(sys.argv[1:]) == 0"
    config = [] if argv == ["verify"] else ["--config", str(CONFIG_DIR / "golden_mean.json")]
    loaded = _loaded_modules(tmp_path, script, *argv, *config)
    assert loaded >= {"sfttrace.cli", "sfttrace.rep"}
    assert loaded & {"sfttrace.operators", "sfttrace.acceptance"} == needs
    # the value types generate no code and no annotation is evaluated, so
    # no command loads these
    assert not loaded & {"dataclasses", "inspect", "typing"}


def test_bench_set_up_imports_neither_operators_nor_acceptance(tmp_path):
    # what the benchmark's probe times before a workload's first item
    script = ("import sys\n"
              "from sfttrace import cli, fixtures, perron\n"
              "perron.compute_perron(cli.load_config(sys.argv[1]).sft)")
    loaded = _loaded_modules(tmp_path, script, str(CONFIG_DIR / "golden_mean.json"))
    assert "sfttrace.fixtures" in loaded
    assert not loaded & {"sfttrace.operators", "sfttrace.acceptance", "dataclasses", "inspect",
                         "typing"}
