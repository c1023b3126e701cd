"""Groupoid algebras, Parry measures and operator-trace asymptotics for
shifts of finite type.

The package models a mixing shift of finite type, its Perron eigen-data
and leaf measures, the locally constant *-algebras over stable and
unstable equivalence, and their fundamental representation on the
heteroclinic set, where the scaled operator traces of shift-conjugated
products converge to the product of the two algebra traces.
"""

from .algebra import (
    AlgebraElement,
    SideMismatch,
    StableBisection,
    UnstableBisection,
    apply_alpha,
    convolve,
    diagonal,
    element,
    involute,
    refine,
    tau_s,
    tau_u,
    trace_property_check,
)
from .perron import (
    NoConvergence,
    NotPrimitive,
    PerronData,
    compute_perron,
    entropy,
    mu_bowen,
)
from .points import (
    HeteroclinicPoint,
    LeftRay,
    Orbit,
    PeriodicOrbitSet,
    RightRay,
    bracket,
    enumerate_heteroclinic,
    make_left_ray,
    make_orbit,
    make_orbit_set,
    make_point,
    make_right_ray,
    shift_point,
)
from .rep import (
    ExactTrace,
    FiniteOperator,
    NonFiniteCoefficient,
    OrbitsNotDisjoint,
    TraceReport,
    WindowOverflow,
    WindowTooSmall,
    apply_element,
    commutator_decay,
    operator_norm,
    product_operator,
    scaled_trace_sequence,
    trace_product,
    trace_product_oracle,
    vanishing_product_check,
)
from .sft import Sft, count_paths, is_admissible, is_mixing, make_sft, validate

__version__ = "0.1.0"
