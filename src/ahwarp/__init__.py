"""Warped-product asymptotically hyperbolic metrics: geodesics, Jacobi
fields, and conjugate-point certificates.

The package builds a one-parameter-family of rotationally invariant metrics
whose curvature is +1 on a ball of radius r and -1 outside a mollified
transition of width eps, integrates their radial geodesics and scalar Jacobi
equations, constructs the decaying (stable) Jacobi solutions, and runs the
search that exhibits parameters with boundary conjugate points but no
interior conjugate points.  Every numerical pipeline is validated against
the closed forms available at the critical parameters (r, eps) = (pi/4, 0).
"""

from .ode import (
    Break,
    IntegrationError,
    Switch,
    TimeGrid,
    Trajectory,
    integrate_backward,
    integrate_ivp,
)
from .warp import (
    EPS0,
    ETA,
    ProfileParams,
    WarpFunction,
    k_parallel,
    k_perp,
    mollifier,
    sec_interpolated,
    solve_warp,
)
from .geodesics import (
    GeodesicParams,
    RadialSolution,
    closed_rho,
    closed_theta,
    comparison_lower_bound,
    entry_time,
    growth_factor,
    radial_exit_slope,
    solve_radial,
)
from .jacobi import (
    FundamentalPair,
    JacobiKernel,
    closed_U_parallel,
    closed_U_perp,
    closed_V_parallel,
    closed_V_perp,
    fundamental_pair,
    jacobi_solution,
    killing_field,
    make_kernel,
    theta,
    theta_infinity,
)
from .stable import (
    TOL_SIGN,
    CertificateError,
    DoubleZeroVerdict,
    StableSolution,
    certificate,
    certificate_parallel_closed,
    certificate_perp_closed,
    certificate_s_derivatives,
    no_double_zero_criterion,
    radial_certificate_closed,
    radial_stable_closed,
    stable_for,
    stable_solution,
)
from .search import (
    Bracket,
    BracketError,
    MidSRecord,
    ScanReport,
    SmallSRecord,
    assemble_report,
    find_r_star,
    verify_large_s,
    verify_small_s,
)

__version__ = "0.1.0"
