"""Exact biorthogonal quantum mechanics over GF(p) and GF(p^2), p = 3 (mod 4)."""

from .gf import (
    FieldConfig,
    FieldElement,
    PhiUniquenessReport,
    Record,
    asdict,
    find_generator,
    phi_map,
    replace,
    verify_phi_uniqueness,
)
from .linear import (
    DualVector,
    ProjectiveState,
    StateVector,
    canonicalize,
    conjugate_dual,
    dot,
    enumerate_projective,
    is_self_orthogonal,
)
from .biortho import (
    BiorthogonalSystem,
    Measurement,
    bracket,
    build_observable,
    expectation,
    is_ortho_nondegenerate,
    named_states,
    physical_states,
    spin_axes,
    spin_observable,
    state_label,
    table_report,
)
from .entangle import (
    Census,
    CHSHRecord,
    ChshBound,
    TwoParticleState,
    axis_quadruples,
    census,
    chsh,
    chsh_bound,
    chsh_scan,
    classify,
    correlator,
    from_product,
    from_vector,
    product_spin,
    representative_states,
    single_spin,
    two_particle_states,
)
from .groups import (
    GroupElement,
    IsomorphismReport,
    LocalTransform,
    Orbit,
    ProjectiveGroup,
    act,
    burnside_count,
    conjugacy_classes,
    conjugate_observable,
    element_orders,
    entangled_labels,
    enumerate_group,
    find_local_transform,
    orbits,
    verify_isomorphism,
)
from .exactlp import LPResult, RREFResult, rref, solve_lp, verify_farkas
from .inference import (
    ConstraintSystem,
    CorrespondenceReport,
    HVReport,
    InferenceResult,
    MomentReport,
    canonical_correlator,
    correspondence_check,
    hv_feasibility,
    infer_probabilities,
    moment_system,
    pair_measurement_system,
    single_measurement_system,
    state_correlator_constraints,
    state_marginal_constraints,
    table4_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
