"""Voltage-stability index and continuation power flow for polyphase grids."""

from .blocks import BlockMatrix
from .builders import (
    MILE_KM,
    pi_line,
    positive_sequence_source,
    seq_to_phase_b,
    seq_to_phase_z,
    sequence_line,
    short_circuit_slack,
    transformer_branch,
)
from .continuation import (
    CpfConfig,
    CpfSample,
    CpfTrace,
    arclength_correct,
    run_cpf,
)
from .errors import (
    BaseCaseDiverged,
    DegenerateDenominator,
    IncompleteModel,
    MissingData,
    NonConvergence,
    ParseError,
    PolyvsiError,
    SingularBranch,
    SingularInteriorBlock,
    SingularJacobian,
    ValidationError,
    ZeroVoltage,
)
from .grid import (
    BandMatrix,
    Branch,
    GridModel,
    HybridPartition,
    Node,
    Shunt,
    Violation,
    assemble_admittance,
    hybrid_partition,
    kron_reduce,
    validate_parameters,
)
from .gridfile import parse_grid, parse_grid_text, serialize_grid
from .nodes import (
    PhaseResource,
    ResourceModel,
    SlackModel,
    ZipCoefficients,
    ZipDecomposition,
    injected_current,
    pm_power_at,
    pm_zip_at,
)
from .powerflow import (
    Mismatch,
    NewtonResult,
    OperatingPoint,
    PolyphaseSystem,
    SvdBlock,
    jacobian_svd,
    mismatch,
    newton_solve,
    solve_power_flow,
)
from .vsi import (
    AugmentedGrid,
    VsiCoefficients,
    VsiResult,
    build_augmented,
    evaluate_vsi,
    reduce_augmented,
    te_node,
    vsi_coefficients,
    vsi_global,
    vsi_local,
    vsi_local_dual,
)

__version__ = "0.1.0"
