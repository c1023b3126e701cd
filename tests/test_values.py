"""The value types keep the contract of the frozen dataclasses they
replaced: equality over the fields within one class, the hash of the
field tuple, the `Name(field=value, ...)` repr, no assignment or deletion,
and cached properties and stashes that change none of these.  Every
value type but `ExactTrace` is valid by construction: its constructor
checks and canonicalizes, and stores tuples built from any sequence."""

import copy
import gc
import hashlib
import pickle
import random
import weakref

import pytest

from sfttrace.acceptance import CheckRow
from sfttrace.algebra import AlgebraElement, StableBisection, UnstableBisection, element
from sfttrace.cli import ExperimentConfig, parse_config
from sfttrace.fixtures import System, canonical_pair, golden_mean, random_element, three_symbol
from sfttrace.operators import FiniteOperator
from sfttrace.perron import PerronData
from sfttrace.points import (
    HeteroclinicPoint,
    InadmissibleOrbit,
    LeftRay,
    Orbit,
    PeriodicOrbitSet,
    RightRay,
    enumerate_heteroclinic,
    make_orbit,
)
from sfttrace.rep import (
    ExactTrace,
    TraceDiagnostics,
    TraceReport,
    TraceRow,
    scaled_trace_sequence,
    trace_product_detail,
)
from sfttrace.sft import Sft, ZeroRowOrColumn, count_paths, make_sft

CLASSES = (AlgebraElement, CheckRow, ExactTrace, ExperimentConfig, FiniteOperator,
           HeteroclinicPoint, LeftRay, Orbit, PerronData, PeriodicOrbitSet, RightRay,
           StableBisection, Sft, System, TraceDiagnostics, TraceReport, TraceRow,
           UnstableBisection)
# fields that hold dicts, so the field tuple has no hash
UNHASHABLE = (ExperimentConfig, FiniteOperator)


def _instances() -> dict:
    """One instance of each value class, built afresh from seeded draws: a
    fixture system, random elements, a many-terms config parsed from its
    document, a trace sweep, a point, an operator and a check row."""
    system = three_symbol()
    rng = random.Random(11)
    a, b = (random_element(rng, system, side, 12) for side in ("stable", "unstable"))
    config = parse_config(ExperimentConfig(system.sft, system.p_set, system.q_set, a, b,
                                           (0, 6), {"final_abs_err": 1.0}, None).doc())
    trace, diagnostics = trace_product_detail(config.a, config.b, 1, system.perron)
    report = scaled_trace_sequence(config.a, config.b, range(3), system.perron)
    point = enumerate_heteroclinic(system.sft, system.p_set, system.q_set, 1)[-1]
    found = [system, system.sft, system.perron, system.p_set, system.p_set.orbits[0],
             config, config.a, config.a.terms[-1][1], config.a.terms[-1][1].target,
             config.b.terms[-1][1], config.b.terms[-1][1].source, trace, diagnostics,
             report, report.rows[-1], point, FiniteOperator({(point, point): (1, 0)}, 2),
             CheckRow("AC-0", "a check", True, "1", "0", 0.25)]
    instances = {type(x): x for x in found}
    assert set(instances) == set(CLASSES)
    return instances


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x)._fields)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_twins_are_equal_and_hash_their_fields(cls):
    x, y = _instances()[cls], _instances()[cls]
    assert x is not y and x == y and not x != y
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    elif cls is ExactTrace:
        # a trace compares and hashes by its exact total
        assert hash(x) == hash(y) == hash(x.exact_total())
    else:
        assert hash(x) == hash(y) == hash(_fields(x))


def test_classes_never_cross_equal():
    values = list(_instances().values())
    for x in values:
        for y in values:
            assert (x == y) == (x is y)
    # equal field tuples, different classes
    orbit = make_orbit((0,))
    left, right = LeftRay(orbit, 0, 0, (), 0), RightRay(orbit, 0, 0, (), 0)
    assert _fields(left) == _fields(right)
    assert left != right and left.__eq__(right) is NotImplemented
    assert TraceDiagnostics() != (0, 0, 0, 0)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_assignment_and_deletion_raise(cls):
    x = _instances()[cls]
    before = repr(x)
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_copies_and_pickles_are_twins(cls):
    x = _instances()[cls]
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin is not x and twin == x and repr(twin) == repr(x)


def test_cached_properties_and_stashes_leave_the_value_alone():
    golden = golden_mean()
    orbit, twin = make_orbit((2, 1, 0)), make_orbit((1, 0, 2))
    reversed_orbit, t = orbit.reversal
    assert reversed_orbit.reversal == (orbit, t) and reversed_orbit.reversal[0] == orbit
    assert "reversal" in orbit.__dict__
    assert orbit == twin and hash(orbit) == hash(twin) and repr(orbit) == repr(twin)

    sft, fresh = golden.sft, Sft(golden.sft.trans, golden.sft.labels)
    assert count_paths(sft, 0, 0, 9) == 55
    assert sft._path_rows is sft.__dict__["_path_rows"]
    assert sft == fresh and hash(sft) == hash(fresh) and repr(sft) == repr(fresh)

    # parsed orbits remember the system they passed in
    system = three_symbol()
    a, b = (random_element(random.Random(3), system, side, 4) for side in ("stable", "unstable"))
    config = parse_config(ExperimentConfig(system.sft, system.p_set, system.q_set, a, b,
                                           (0, 2), {}, None).doc())
    assert all("valid_in" in o.__dict__ for o in config.p_set.orbits)
    assert config.p_set == system.p_set and repr(config.p_set) == repr(system.p_set)

    a, b = config.a, config.b
    trace_product_detail(a, b, 2, system.perron)
    assert b.__dict__["pair_table"].partner is a
    twin = AlgebraElement(b.side, b.terms)
    assert b == twin and hash(b) == hash(twin) and repr(b) == repr(twin)
    assert "pair_table" not in repr(b)

    z = HeteroclinicPoint(make_orbit((0,)), 0, 0, (1,), make_orbit((0,)), 0, 1)
    first = repr(z)
    assert hash(z) == hash(_fields(z)) and repr(z) == first


def test_positional_keyword_and_default_construction():
    orbit = make_orbit((0,))
    assert (LeftRay(orbit=orbit, phase=0, splice=-1, body=(0,), end=0)
            == LeftRay(orbit, 0, -1, (0,), 0))
    assert TraceDiagnostics() == TraceDiagnostics(0, 0, 0, 0)
    assert TraceDiagnostics(overlap_pairs=2) == TraceDiagnostics(0, 2)
    assert Sft(((1, 1), (1, 0))).labels == ("0", "1")
    assert ExactTrace(((1 + 0j, 2),)).dyadic is None
    assert ExactTrace(((1 + 0j, 2),)) == ExactTrace.from_pairs([(1 + 0j, 1), (1 + 0j, 1)])
    assert isinstance(PeriodicOrbitSet((orbit,)).orbits[0], Orbit)
    # the builders that reduced or converted their input are the classes
    assert element is AlgebraElement and make_sft is Sft


# class -> a build of one of its values from sequences that `seq` makes
FROM_SEQUENCES = {
    Sft: lambda seq: Sft(seq([seq([1, 1]), seq([1, 0])]), seq(["a", "b"])),
    Orbit: lambda seq: Orbit(seq([1, 0, 0])),
    PeriodicOrbitSet: lambda seq: PeriodicOrbitSet(seq([make_orbit((0,)), make_orbit((0, 1))])),
    LeftRay: lambda seq: LeftRay(make_orbit((0, 1)), 0, -2, seq([1, 1]), 0),
    RightRay: lambda seq: RightRay(make_orbit((0, 1)), 0, 0, seq([0, 0]), 2),
    HeteroclinicPoint: lambda seq: HeteroclinicPoint(make_orbit((0,)), 0, 0, seq([1, 1]),
                                                     make_orbit((0,)), 0, 2),
}


@pytest.mark.parametrize("seq", [list, lambda xs: (x for x in xs)], ids=["list", "generator"])
@pytest.mark.parametrize("cls", FROM_SEQUENCES, ids=lambda c: c.__name__)
def test_values_built_from_any_sequence_are_their_tuple_twins(cls, seq):
    x, twin = FROM_SEQUENCES[cls](seq), FROM_SEQUENCES[cls](tuple)
    assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)


def test_reprs_are_those_of_the_dataclasses():
    # text printed by the frozen dataclasses these classes replaced
    golden = golden_mean()
    assert repr(golden.sft) == "Sft(trans=((1, 1), (1, 0)), labels=('0', '1'))"
    assert repr(golden.p_set) == "PeriodicOrbitSet(orbits=(Orbit(word=(0,)),))"
    a, b = canonical_pair(golden)
    left = "LeftRay(orbit=Orbit(word=(0,)), phase=0, splice=0, body=(), end=0)"
    right = "RightRay(orbit=Orbit(word=(0,)), phase=0, start=0, body=(), splice=0)"
    assert repr(a) == (f"AlgebraElement(side='stable', terms=(((1+0j), StableBisection("
                       f"target={left}, source={left})),))")
    assert repr(b) == (f"AlgebraElement(side='unstable', terms=(((1+0j), UnstableBisection("
                       f"target={right}, source={right})),))")
    trace, diagnostics = trace_product_detail(a, b, 3, golden.perron)
    assert repr(trace) == "ExactTrace(pairs=(((1+0j), 21),))"
    assert repr(diagnostics) == ("TraceDiagnostics(bridge_pairs=1, overlap_pairs=0, "
                                 "offdiag_pairs=0, offdiag_fixed_points=0)")
    assert repr(ExactTrace(((1 + 0j, 2),), (1, {}))) == "ExactTrace(pairs=(((1+0j), 2),))"
    orbit = make_orbit((0,))
    assert repr(HeteroclinicPoint(orbit, 0, 0, (1,), orbit, 0, 1)) == (
        "HeteroclinicPoint(left_orbit=Orbit(word=(0,)), left_phase=0, n_left=0, middle=(1,), "
        "right_orbit=Orbit(word=(0,)), right_phase=0, m_right=1)")
    assert repr(PerronData(golden.sft, 2.0, (1.0, 0.5), (0.5, 1.0), 0.0)) == (
        "PerronData(sft=Sft(trans=((1, 1), (1, 0)), labels=('0', '1')), lam=2.0, "
        "v=(1.0, 0.5), u=(0.5, 1.0), residual=0.0)")
    assert repr(make_orbit((2, 1, 0)).reversal) == "(Orbit(word=(0, 1, 2)), 2)"


def test_an_orbit_and_its_reversal_keep_each_other_alive_no_longer():
    # no reference cycle: both die with their last reference, with no
    # collection by the cyclic garbage collector
    gc.disable()
    try:
        orbit = make_orbit((0, 1, 1))
        refs = [weakref.ref(orbit), weakref.ref(orbit.reversal[0])]
        del orbit
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_every_rotation_builds_one_orbit():
    rng = random.Random(20261020)
    primitive = 0
    for _ in range(300):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        rotations = [word[i:] + word[:i] for i in range(len(word))]
        if len(set(rotations)) < len(word):
            for rotation in rotations:
                with pytest.raises(InadmissibleOrbit) as exc:
                    Orbit(rotation)
                assert str(exc.value) == f"{min(rotations)} is not primitive"
            continue
        primitive += 1
        orbits = {Orbit(rotation) for rotation in rotations}
        assert orbits == {make_orbit(word)} and orbits.pop().word == min(rotations)
    assert 200 < primitive < 300
    with pytest.raises(InadmissibleOrbit, match="^empty cyclic word$"):
        Orbit(())


WORDS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 1),
         (0, 0, 1, 2), (0, 1, 0, 2)]


def _gluing_data(rng):
    """Arbitrary gluing data: random orbits and phases, and a middle that is
    random or made of runs continuing the periodic sides."""
    left, right = (make_orbit(rng.choice(WORDS)) for _ in "lr")
    if rng.random() < 0.3:
        right = left
    lph, rph = rng.randrange(left.period), rng.randrange(right.period)
    n_left = rng.randint(-4, 4)
    mode = rng.randrange(3)
    if mode == 0:
        middle = tuple(rng.randrange(3) for _ in range(rng.randint(0, 5)))
    else:
        head = tuple(left.word[(lph + 1 + i) % left.period] for i in range(rng.randint(0, 4)))
        tail = tuple(right.word[(rph - 1 - i) % right.period]
                     for i in range(rng.randint(0, 4)))[::-1]
        core = tuple(rng.randrange(3) for _ in range(rng.randint(0, 1) if mode == 1 else 0))
        middle = head + core + tail
    return left, lph, n_left, middle, right, rph, n_left + len(middle)


# sha256 of the reprs, one a line, of the points that make_point built from
# _gluing_data(Random(20261020)) 500 times before the constructor took its work
GLUING_SHA256 = "235f26bdd46c4b3836f175a272c6dff8df2af876195b7733da97d1b791e126ae"


def test_points_from_random_gluing_data_are_those_make_point_built():
    rng = random.Random(20261020)
    reprs = []
    for _ in range(500):
        data = _gluing_data(rng)
        z = HeteroclinicPoint(*data)
        left, lph, n_left, middle, right, rph, m_right = data
        glued = HeteroclinicPoint.__new__(HeteroclinicPoint)
        glued.__dict__.update(zip(HeteroclinicPoint._fields, data))
        # the same sequence, in the canonical form, which is a fixed point
        lo, hi = min(n_left, z.n_left) - 8, max(m_right, z.m_right) + 8
        assert z.segment(lo, hi) == glued.segment(lo, hi)
        assert HeteroclinicPoint(*_fields(z)) == z
        reprs.append(repr(z))
    assert reprs[:3] == [
        "HeteroclinicPoint(left_orbit=Orbit(word=(0, 1, 1)), left_phase=0, n_left=5, "
        "middle=(0, 0, 1), right_orbit=Orbit(word=(0, 1, 0, 2)), right_phase=1, m_right=8)",
        "HeteroclinicPoint(left_orbit=Orbit(word=(0, 1, 2)), left_phase=2, n_left=5, "
        "middle=(2, 0, 0, 0), right_orbit=Orbit(word=(0, 1, 2)), right_phase=0, m_right=9)",
        "HeteroclinicPoint(left_orbit=Orbit(word=(0,)), left_phase=0, n_left=5, middle=(), "
        "right_orbit=Orbit(word=(2,)), right_phase=0, m_right=5)",
    ]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == GLUING_SHA256


# what `sft.validate` reported for 200 seeded random matrices of 1-4 symbols
# before the constructor took its checks: "-" for none, else the axis
# ("r"ow or "c"olumn) and the symbol
VALIDATE_REPORTS = (
    "c1 r0 - r0 - - r0 r0 r0 - - - c1 - - c1 r0 r0 r0 r1 c0 c0 c0 - - - - r1 - - - - - - - r0 "
    "r0 - r1 r1 r0 r0 - r0 r1 - - r0 r0 r0 c1 r1 - c0 r0 - - - - - r1 r0 r0 c0 r1 r2 r0 r0 - "
    "r2 - - - r1 r0 r0 - - - c1 - - r2 - - r0 - r0 c1 - r0 - - - r0 - - r0 - r0 r0 r0 r0 r3 "
    "r1 - r2 - r3 - - r0 c2 c0 r2 - - - - - - - r0 - r0 - r0 r0 - - - r1 r0 - - r0 - c0 - - "
    "r0 - - - - - - r0 - r0 r3 r1 c2 - - r1 - c2 - - r0 r0 r0 - - - - c1 r0 r0 - r0 - - r0 r0 "
    "r0 - r3 r0 r0 - r0 c2 - - r0 - r0 - - r0 - - r0 c1 - - r0 -"
)


def test_sft_refuses_a_zero_row_or_column_as_validate_did():
    rng = random.Random(20261020)
    reports = []
    for _ in range(200):
        n = rng.randint(1, 4)
        trans = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        try:
            Sft(trans)
            reports.append("-")
        except ZeroRowOrColumn as exc:
            reports.append(f"{exc.axis[0]}{exc.symbol}")
    assert " ".join(reports) == VALIDATE_REPORTS
    assert {"-", "r0", "r3", "c0", "c2"} <= set(reports)
