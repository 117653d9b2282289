"""Cusp-expansion cross sections and symbolic dynamics for Gamma_0(p)\\H.

Exact boundary arithmetic, Ford-domain tessellation, branch tables and
codings of the geodesic flow, an independent geometric first-return
oracle, and the associated transfer operator with a collocation
discretization.
"""

from .exact import (
    INF,
    Approx,
    BoundaryValue,
    Infinity,
    Rational,
    Surd,
    compare,
    emit_value,
    normalize_surd,
    parse_value,
)
from .moebius import GroupElement, HPoint, IsometricSphere, in_gamma0
from .tessellation import (
    Cell,
    FordDomain,
    build_domain,
    cell,
    g_pair,
    locate_cell,
    modular_domain,
    reduce_point,
)
from .dynamics import (
    BranchTable,
    CodingSequence,
    CuspPointError,
    accelerate_to_cf,
    apply_F,
    branch_table,
    code_future,
    code_two_sided,
    modular_table,
)
from .flow_oracle import (
    Geodesic,
    SectionPoint,
    canonical_section_point,
    classify,
    first_return_geometric,
    previous_exterior_geometric,
)
from .transfer import (
    CollocationOperator,
    DensityFunction,
    apply_transfer,
    collocation_matrix,
)

__version__ = "0.1.0"
