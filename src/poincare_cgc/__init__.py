"""Poincare-group irrep kinematics and two-particle Clebsch-Gordan tools.

Layers, lowest first:

halfint
    Exact half-integer labels and component bookkeeping.
lorentz
    SL(2,C) spinor transforms, four-momenta, standard boosts, Wigner
    rotations.
su2
    Wigner d and D matrices, SU(2) Clebsch-Gordan coefficients, spherical
    harmonics.
cgc
    Two-particle coupling channels, both schemes' coefficient tables from
    one label kernel, their general-frame forms, discrete symmetry labels.
states
    Quadrature grids, basis states, rotations, product-state
    decomposition, serialization.
reference_tables
    Frozen closed forms the generated tables are checked against,
    including documented deviating variants.
verify
    The self-check suite behind the command line's verify subcommand.
cli
    The poincare-cgc command line.
"""

from .cgc import (
    HelicityChannel,
    Kinematics,
    SpinOrbitChannel,
    TwoParticleSpec,
    angular_helicity_com,
    angular_helicity_general,
    angular_spin_orbit_com,
    angular_spin_orbit_general,
    com_momentum,
    com_normalization,
    coupling_channels,
    discrete_symmetry_labels,
    enumerate_channels,
    helicity_com_scalar,
    helicity_com_table,
    helicity_general_table,
    helicity_to_wigner,
    relative_direction,
    relative_momentum,
    spin_orbit_com_table,
    spin_orbit_general_table,
)
from .errors import (
    BelowThreshold,
    GridMismatch,
    GridTooCoarse,
    InvalidChannel,
    InvalidOrbitalLabel,
    MasslessUnsupported,
    NotARotation,
)
from .halfint import HalfInt, component_index, components, hrange, triangle_rule
from .lorentz import (
    FourMomentum,
    SpinorTransform,
    apply_lorentz,
    canonical_boost,
    helicity_boost,
    is_proper_orthochronous,
    polar_angles,
    spinor_to_lorentz,
    standard_boost,
    wigner_rotation,
)
from .states import (
    BELL_LABELS,
    ComBasisState,
    Decomposition,
    DecompositionEntry,
    DeltaProductState,
    GridProductState,
    QuadratureGrid,
    all_basis_states,
    apply_rotation,
    bell_state,
    build_com_basis_state,
    build_grid,
    convert_slots_to_canonical,
    decompose_product_state,
    gram_matrix,
    inner_product,
    reconstruct,
    state_from_json,
    state_to_json,
)
from .su2 import (
    euler_zyz,
    rep_matrix,
    spherical_harmonic,
    su2_cgc,
    wigner_d_small,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_LABELS",
    "BelowThreshold",
    "ComBasisState",
    "Decomposition",
    "DecompositionEntry",
    "DeltaProductState",
    "FourMomentum",
    "GridMismatch",
    "GridProductState",
    "GridTooCoarse",
    "HalfInt",
    "HelicityChannel",
    "InvalidChannel",
    "InvalidOrbitalLabel",
    "Kinematics",
    "MasslessUnsupported",
    "NotARotation",
    "QuadratureGrid",
    "SpinOrbitChannel",
    "SpinorTransform",
    "TwoParticleSpec",
    "all_basis_states",
    "angular_helicity_com",
    "angular_helicity_general",
    "angular_spin_orbit_com",
    "angular_spin_orbit_general",
    "apply_lorentz",
    "apply_rotation",
    "bell_state",
    "build_com_basis_state",
    "build_grid",
    "canonical_boost",
    "com_momentum",
    "com_normalization",
    "component_index",
    "components",
    "convert_slots_to_canonical",
    "coupling_channels",
    "decompose_product_state",
    "discrete_symmetry_labels",
    "enumerate_channels",
    "euler_zyz",
    "gram_matrix",
    "helicity_boost",
    "helicity_com_scalar",
    "helicity_com_table",
    "helicity_general_table",
    "helicity_to_wigner",
    "hrange",
    "inner_product",
    "is_proper_orthochronous",
    "polar_angles",
    "reconstruct",
    "relative_direction",
    "relative_momentum",
    "rep_matrix",
    "spherical_harmonic",
    "spin_orbit_com_table",
    "spin_orbit_general_table",
    "spinor_to_lorentz",
    "standard_boost",
    "state_from_json",
    "state_to_json",
    "su2_cgc",
    "triangle_rule",
    "wigner_d_small",
    "wigner_rotation",
    "__version__",
]
