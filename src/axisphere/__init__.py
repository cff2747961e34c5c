"""Numerical laboratory for n-axially symmetric sphere-valued maps:
energies, minimal connections, and constrained profile minimizers."""

from .connection import (
    ConnectionResult,
    SingularityConfig,
    kantorovich_dual,
    min_connection_assignment,
    min_connection_bruteforce,
)
from .energy import (
    EnergyReport,
    MeridianField,
    area_radial,
    conformality_gap,
    dirichlet_energy_radial,
    energy_3d,
    meridian_from_profile,
    monotone_area_bound,
)
from .geometry import (
    INFINITY,
    NumericalError,
    ConeDipoleMap,
    RadialProfile,
    chart_to_colatitude,
    degree_from_flux,
    geometric_grid,
    u0_profile,
    u_eps_profile,
)
from .variational import (
    ClosedFormProfile,
    ConeConstraint,
    I_functional,
    compute_t0,
    compute_tau0,
    eta_profile,
    g0_construct,
    gap_lower_bound,
    minimize_I_numerical,
    zeta_profile,
)

__version__ = "0.1.0"
