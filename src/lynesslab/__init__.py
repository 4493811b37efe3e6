"""Verification and simulation laboratory for the k-dimensional Lyness map

    F(x1, ..., xk) = (x2, ..., xk, (a + x2 + ... + xk) / x1),   a >= 0,

on the open positive orthant. The package verifies, in exact rational
arithmetic, the algebraic identities the map satisfies (first integrals,
a 2-integral, a Lie symmetry with its shift and compatibility laws, an
invariant hypersurface, measure-density transformation rules, and an
order reduction of the double-step), and simulates orbits of the map and
of the symmetry flow in float64 for dataset export.

Every formula-level function accepts Fractions, floats, or dual numbers
through one generic code path, so exact checks and float simulations are
guaranteed to share the arithmetic they test.
"""

from types import ModuleType as _ModuleType

from .dynamics import (
    GPoint,
    OddPeriodVerdict,
    measure_density_residual,
    odd_period_guard,
    orbit_signature,
    rotation_number,
    sample_g_point,
    solve_v1_level,
    v1_minimum,
    v_profile,
)
from .errors import (
    DegenerateOrbitError,
    DimensionError,
    DomainError,
    NoRootError,
    VerificationError,
)
from .flow import (
    BOUNDARY_EPS,
    METHODS,
    FlowTrace,
    TransportReport,
    integrate_flow,
    invariant_drift,
    transport_diagnostic,
)
from .invariants import (
    LevelSignature,
    eval_pi,
    eval_v1,
    eval_v2,
    eval_v3,
    eval_w,
    eval_z,
    independence_rank,
    level_signature,
    level_signatures,
    z_sign,
)
from .lyness import (
    FixedPoint,
    OrbitTrace,
    Params,
    fixed_point,
    inverse_step,
    iterate,
    jacobian,
    jacobian_det,
    step,
    two_periodic_point,
)
from .reduction import (
    ReducedParams,
    lift_k3,
    lift_k5,
    project,
    reduced_step_k3,
    reduced_step_k5,
    semiconjugacy_residual,
)
from .scalars import Dual, RatMatrix, exact_rank, gradient, parse_rational
from .symmetry import (
    annihilation_residual,
    compatibility_residual,
    equilibrium_residual,
    factorization_residual,
    lie_residual,
    shift_residual,
    shift_residuals,
    symmetry_vector,
)
from .verify import SuiteResult, run_suites

__version__ = "0.1.0"

# the public API is every name imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
