"""Float64 integration of the symmetry field and the orbit-transport probe.

The field is stiff-free and smooth on compact invariant sets, so classic
fixed-step RK4 (bit-deterministic) is the default; an adaptive RK45 mode is
available for cross-checks. Trajectories that approach the orthant boundary
are truncated and flagged rather than continued, by one rule for both: a
run ends before a step whose new state or a sample fails `_in_domain`
(every coordinate finite and > 1e-12) or whose arithmetic raises
ArithmeticError, and keeps the samples before it. RK4 computes each step
whole, as one compiled kernel, and checks its three stage points too (the
field may be evaluated at a stage point outside the domain; that result is
dropped). RK45 steps SciPy's solver and samples each grid time from the
interpolant of the step that reaches it; it also ends where the solver
fails, where the field is not finite, and at t=0 where x0 fails the rule.
The start point is validated and put in float64, a with it, once at entry
by `lyness.float_point`; the solvers, the signature pass and the transport
probe then call the kernels. A trace also ends, flagged, before a sample
whose levels overflow float64 (`level_signatures`): at x0, with no sample.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .invariants import level_signatures
from .lyness import Params, float_point, step, traced
from .symmetry import symmetry_vector

BOUNDARY_EPS = 1e-12

RK45_TOL = 1e-10  # relative and absolute tolerance of the adaptive solver

METHODS = ("rk4-fixed", "rk45-adaptive")


@dataclass
class FlowTrace:
    params: Params
    method: str
    dt: float
    t_max: float
    times: list
    states: list
    signatures: list
    boundary_hit: bool


def _in_domain(x):
    """The truncation rule: every coordinate finite and > BOUNDARY_EPS (a nan
    fails both comparisons)."""
    return all(BOUNDARY_EPS < c < math.inf for c in x)


@traced
def _rk4_stages(p: Params, x, half, h, h6) -> tuple:
    """The three stage points and the new state of one RK4 step of size h
    from x, as one tuple of 4k coordinates; half = 0.5 * h and h6 = h / 6.0."""
    ks, stages = [symmetry_vector.kernel(p, x)], ()
    for fh in (half, half, h):
        stages += tuple(xi + fh * ki for xi, ki in zip(x, ks[-1]))
        ks.append(symmetry_vector.kernel(p, stages[-p.k :]))
    return stages + tuple(xi + h6 * (a + 2 * b + 2 * c + d) for xi, a, b, c, d in zip(x, *ks))


def _grid_steps(dt: float, t_max: float) -> int:
    """The whole number n >= 1 of dt steps that make up t_max; else ValueError."""
    if not (0 < dt < math.inf and 0 < t_max < math.inf):
        raise ValueError("dt and t_max must be positive and finite")
    ratio = t_max / dt
    n = round(ratio) if ratio < math.inf else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise ValueError(f"t_max={t_max!r} is not a whole number of dt={dt!r} steps")
    return n


def _rk4(p: Params, x0, h: float, n_steps: int):
    """(states, boundary_hit) of up to n_steps RK4 steps of signed size h,
    ending before a step that leaves the domain or raises ArithmeticError."""
    half, h6 = 0.5 * h, h / 6.0
    states = [x0]
    for _ in range(n_steps):
        try:
            out = _rk4_stages(p, states[-1], half, h, h6)
        except ArithmeticError:
            return states, True
        if not _in_domain(out):
            return states, True
        states.append(out[3 * p.k :])
    return states, False


def integrate_flow(
    p: Params, x0, dt: float, t_max: float, method: str = "rk4-fixed"
) -> FlowTrace:
    """Flow trace sampled on the uniform grid 0, dt, 2dt, ..., t_max; t_max
    must be a whole number of dt steps. The trace keeps p as given."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    n_steps = _grid_steps(dt, t_max)
    fp, x0 = float_point(p, x0)
    rk4 = method == "rk4-fixed"
    states, hit = _rk4(fp, x0, dt, n_steps) if rk4 else _rk45(fp, x0, dt, t_max, n_steps)
    signatures = list(level_signatures(fp, states))
    hit = hit or len(signatures) < len(states)  # the levels ended first
    del states[len(signatures) :]
    times = [j * dt if rk4 else min(j * dt, t_max) for j in range(len(states))]
    return FlowTrace(p, method, dt, t_max, times, states, signatures, hit)


def _rk45(p: Params, x0, dt: float, t_max: float, n_steps: int):
    """(states, boundary_hit) of SciPy's RK45 at the grid times min(j * dt,
    t_max), each sampled from the interpolant of the solver step that reaches
    it, ending as `_rk4` does and where the solver fails. The field runs on
    Python floats, and a value that is not finite raises ArithmeticError."""
    from scipy.integrate import RK45

    def rhs(_t, y):
        out = symmetry_vector.kernel(p, y.tolist())
        if not all(map(math.isfinite, out)):
            raise ArithmeticError("the field is not finite")
        return out

    grid = [min(j * dt, t_max) for j in range(n_steps + 1)]
    states = [x0]
    if not _in_domain(x0):
        return states, True
    try:
        solver = RK45(rhs, 0.0, x0, t_max, rtol=RK45_TOL, atol=RK45_TOL)
        while len(states) <= n_steps:
            solver.step()
            if solver.status == "failed" or not _in_domain(solver.y.tolist()):
                return states, True
            reached = bisect.bisect_right(grid, solver.t, lo=len(states))
            if reached > len(states):
                dense = solver.dense_output()
                samples = [tuple(dense(t).tolist()) for t in grid[len(states) : reached]]
                if not all(map(_in_domain, samples)):
                    return states, True
                states += samples
    except ArithmeticError:
        return states, True
    return states, False


def invariant_drift(trace: FlowTrace) -> dict:
    """Max relative drift of each conserved level along the trace; {} for a
    trace of fewer than two samples, which shows no drift either way."""
    if len(trace.signatures) < 2:
        return {}
    ref = trace.signatures[0]
    names = ["v1", "v2"] + (["v3"] if ref.v3 is not None else [])
    out = {}
    for name in names:
        base = getattr(ref, name)
        out[name] = max(
            abs(getattr(sig, name) - base) / abs(base) for sig in trace.signatures
        )
    return out


@dataclass
class TransportReport:
    """Exploratory probe of how the map moves flow orbits around.

    `distances` holds nearest-sample distances from F(q), q on the flow orbit
    gamma0 through x0, to the flow orbit gamma1 through F(x0): the symmetry
    law makes these integration-error small, confirming orbit-to-orbit
    transport. `source_distances` measures F(q) against gamma0 itself; from
    k=4 on it stays persistently large, evidence that the image orbit is a
    different orbit of the same field. Nothing is asserted either way.
    """

    params: Params
    distances: list
    source_distances: list
    curve_scale: float
    base_truncated: bool
    image_truncated: bool

    @property
    def max_distance(self):
        return max(self.distances)

    @property
    def min_source_distance(self):
        return min(self.source_distances)


def _two_sided_orbit(p, x0, dt, t_max):
    # reverse time by flowing with the negated step
    n_steps = _grid_steps(dt, t_max)
    fwd, fwd_hit = _rk4(p, x0, dt, n_steps)
    bwd, bwd_hit = _rk4(p, x0, -dt, n_steps)
    return bwd[:0:-1] + fwd, fwd_hit or bwd_hit


def transport_diagnostic(
    p: Params, x0, t_max: float, samples: int, dt: float = 1e-3
) -> TransportReport:
    """Map `samples` points of the flow orbit through x0 forward under F and
    measure the nearest-sample distance to the flow orbit through F(x0)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    fp, x0 = float_point(p, x0)
    base_states, base_trunc = _two_sided_orbit(fp, x0, dt, t_max)
    image_states, image_trunc = _two_sided_orbit(fp, step.kernel(fp, x0), dt, t_max)

    import numpy as np

    gamma0 = np.asarray(base_states)
    gamma1 = np.asarray(image_states)
    picks = np.linspace(0, len(base_states) - 1, num=samples).astype(int)
    distances, source_distances = [], []
    for idx in picks:
        q = np.asarray(step.kernel(fp, base_states[idx]))
        distances.append(float(np.min(np.linalg.norm(gamma1 - q, axis=1))))
        source_distances.append(float(np.min(np.linalg.norm(gamma0 - q, axis=1))))
    scale = float(np.linalg.norm(gamma1.max(axis=0) - gamma1.min(axis=0)))
    return TransportReport(
        params=p,
        distances=distances,
        source_distances=source_distances,
        curve_scale=scale,
        base_truncated=base_trunc,
        image_truncated=image_trunc,
    )
