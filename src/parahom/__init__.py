"""Numerical laboratory for lattice parabolic equations with random
space-time coefficients and their homogenization."""

from .errors import ConfigError, IntegrityError, SolverError
from .lattice import (
    EllipticityPair,
    PeriodicCube,
    heat_kernel_1d,
    heat_kernel_solver,
    heat_kernel_table,
    hom_gaussian_kernel,
)
from .parabolic import (
    CoefficientField,
    GreensTable,
    aronson_fit,
    constant_coefficients,
    damped_perturbation_terms,
    damped_resolvent,
    greens_backward,
    greens_backward_matrix,
    greens_perturbation_terms,
    solve_forward,
    spacetime_norm,
)
from .environments import (
    CoefficientMap,
    FieldTrajectory,
    PotentialSpec,
    coefficient_field,
    langevin_simulate,
)
from .homogenize import (
    CorrectorField,
    QMatrix,
    RateReport,
    a_hom_extract,
    avg_greens_mc,
    corrector_solve,
    greens_hat_formula,
    greens_hat_quadrature,
    neumann_series_q,
    q_matrix,
    rate_fit,
    t_operator_apply,
)
from .field_theory import (
    TerminalFunctional,
    correlation_identity_check,
    malliavin_fd_check,
    massive_lattice_greens,
    poincare_variance_check,
)
from .convex_diffusion import (
    ConvexPotential,
    convex_diffusion_simulate,
    cosine_perturbed_potential,
    exact_gaussian_path,
    feynman_kac_estimate,
    path_action_hessian_probe,
    quadratic_potential,
    stationary_moments_check,
)

__version__ = "0.1.0"
