"""Diagonal third-level gates on prime-dimensional qudits.

Exact phase exponents and group structure of the gate family, stabilizer
and Clifford polytope geometry (facets, negativities, LP membership with
certificates), noise thresholds, and the dilution/injection circuits.
"""

from .errors import (
    BadLength,
    ConvergenceFailure,
    MissingConfig,
    NotDiagonal,
    NotEigenvector,
    NotInvertible,
    NotTracePreserving,
    NotUnitary,
    NumericalInstability,
    QuditGatesError,
    ShapeMismatch,
    SymmetryViolation,
    UnsupportedDim,
    ZeroLabel,
)
from .kernel import (
    equal_up_to_global_phase,
    mod_inv,
)
from .weylheis import (
    SUPPORTED_PRIMES,
    CliffordLabel,
    clifford_labels,
    clifford_unitary,
    compose_cliffords,
    displacement,
    mub_projectors,
    mub_vectors,
    pauli_projector,
    pauli_x,
    pauli_z,
    symplectic_unitary,
)
from .hierarchy import (
    DiagGateExact,
    GateParams,
    GroupReport,
    MagicGateReport,
    ThirdLevelReport,
    compose_params,
    element_order,
    gate_exponents,
    gate_matrix,
    group_structure,
    identify_third_level,
    magic_gate,
    magic_gate_matrix,
    pauli_conjugation,
    root_order,
)
from .geometry import (
    DilutionResult,
    EdgeScanResult,
    InjectionResult,
    KrausChannel,
    NegativityResult,
    basis_expectations,
    choi_of_channel,
    choi_of_unitary,
    clifford_eigenphase,
    depolarized_choi,
    depolarized_state,
    depolarizing_gate_channel,
    edge_facet,
    edge_scan,
    edge_spectra_classes,
    facet_operator,
    gate_state,
    inject_gate,
    negativity,
    partial_trace,
    phase_damped_state,
    phase_damping_gate_channel,
    simulate_dilution,
    state_from_diagonal,
)
from .hull import (
    LPOutcome,
    PolytopeSpec,
    ROBUST_GATE_PARAMS,
    ThresholdResult,
    UQCBounds,
    cliff_polytope,
    dilution,
    dilution_inv,
    equatorial_polytope,
    load_distill_config,
    lp_membership,
    lp_threshold,
    optimize_equatorial,
    stab_polytope,
    threshold_depol_gate,
    threshold_depol_state,
    threshold_pd_gate,
    uqc_bounds,
    verify_certificate,
)

__version__ = "0.1.0"
