"""Groupoid algebras, Parry measures and operator-trace asymptotics for
shifts of finite type.

The package models a mixing shift of finite type, its Perron eigen-data
and leaf measures, the locally constant *-algebras over stable and
unstable equivalence, and their fundamental representation on the
heteroclinic set, where the scaled operator traces of shift-conjugated
products converge to the product of the two algebra traces.

Importing the package loads none of its modules.  Each public name below
loads the module that defines it on first use (`__getattr__`), so
`from sfttrace import trace_product` loads what a trace needs and no
more, and so does each subcommand of `sfttrace.cli`.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "AlgebraElement", "SideMismatch", "StableBisection", "UnstableBisection",
        "apply_alpha", "convolve", "diagonal", "element", "involute", "refine",
        "tau_s", "tau_u", "trace_property_check",
    ), "algebra"),
    **dict.fromkeys((
        "NoConvergence", "NonFiniteCoefficient", "NotPrimitive", "PerronData",
        "compute_perron", "entropy", "mu_bowen",
    ), "perron"),
    **dict.fromkeys((
        "HeteroclinicPoint", "LeftRay", "Orbit", "PeriodicOrbitSet", "RightRay",
        "WindowOverflow", "bracket", "enumerate_heteroclinic", "make_left_ray",
        "make_orbit", "make_orbit_set", "make_right_ray", "shift_point",
    ), "points"),
    **dict.fromkeys((
        "ExactTrace", "TraceReport", "WindowTooSmall", "scaled_trace_sequence",
        "trace_product", "trace_product_oracle",
    ), "rep"),
    **dict.fromkeys((
        "FiniteOperator", "OrbitsNotDisjoint", "apply_element", "commutator_decay",
        "operator_norm", "product_operator", "vanishing_product_check",
    ), "operators"),
    **dict.fromkeys((
        "Sft", "count_paths", "is_admissible", "is_mixing", "make_sft",
    ), "sft"),
}
# every module, also reachable as an attribute after a bare `import sfttrace`
_MODULES = ("acceptance", "algebra", "cli", "fixtures", "operators", "perron", "points",
            "rep", "sft", "values")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
