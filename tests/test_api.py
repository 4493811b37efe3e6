"""The package root exports exactly its public API: the names it imports,
with no module and no private name among them."""

import lynesslab

PUBLIC = """
    BOUNDARY_EPS DegenerateOrbitError DimensionError DomainError Dual FixedPoint
    FlowTrace GPoint LevelSignature METHODS NoRootError OddPeriodVerdict
    OrbitTrace Params RatMatrix ReducedParams SuiteResult TransportReport
    annihilation_residual compatibility_residual equilibrium_residual eval_pi eval_v1
    eval_v2 eval_v3 eval_w eval_z exact_rank factorization_residual fixed_point
    gradient independence_rank integrate_flow invariant_drift
    inverse_step iterate jacobian jacobian_det level_signature level_signatures
    lie_residual lift_k3 lift_k5 measure_density_residual odd_period_guard
    orbit_signature parse_rational project reduced_step_k3 reduced_step_k5
    rotation_number run_suites sample_g_point semiconjugacy_residual shift_residual
    shift_residuals solve_v1_level step symmetry_vector transport_diagnostic two_periodic_point
    v1_minimum v_profile z_sign
""".split()


def test_the_package_root_exports_its_public_api():
    assert lynesslab.__all__ == sorted(PUBLIC)
    namespace = {}
    exec("from lynesslab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
