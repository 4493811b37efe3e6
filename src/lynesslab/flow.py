"""Float64 integration of the symmetry field and the orbit-transport probe.

The field is stiff-free and smooth on compact invariant sets, so classic
fixed-step RK4 (bit-deterministic) is the default; an adaptive RK45 mode is
available for cross-checks. Trajectories that approach the orthant boundary
are truncated and flagged rather than continued, by one rule, `_in_domain`
(every coordinate finite and > 1e-12): RK4 applies it to each stage point,
before the field is evaluated there, and to each new state; RK45 stops at
its terminal `near_boundary` event, or where it cannot take a step, and
keeps the samples it reached. The start point is validated and put
in float64, a with it, once at entry by `lyness.float_point`; the solvers,
the signature pass and the transport probe then call the pure kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .invariants import level_signatures
from .lyness import Params, float_point, step
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
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    signatures: list = field(default_factory=list)
    boundary_hit: bool = False


def _in_domain(x):
    """The truncation rule: every coordinate finite and > BOUNDARY_EPS (a nan
    fails both comparisons)."""
    return all(BOUNDARY_EPS < c < math.inf for c in x)


def _rk4_step(p: Params, x, h):
    """One RK4 step of signed size h from x, or None if a stage point or the
    new state leaves the domain; the field only sees points inside it."""
    ks = [symmetry_vector.kernel(p, x)]
    for frac in (0.5, 0.5, 1.0):
        fh = frac * h
        stage = tuple(xi + fh * ki for xi, ki in zip(x, ks[-1]))
        if not _in_domain(stage):
            return None
        ks.append(symmetry_vector.kernel(p, stage))
    h6 = h / 6.0
    nxt = tuple(xi + h6 * (a + 2 * b + 2 * c + d) for xi, a, b, c, d in zip(x, *ks))
    return nxt if _in_domain(nxt) else None


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
    """(states, boundary_hit) of up to n_steps RK4 steps of signed size h."""
    states = [x0]
    for _ in range(n_steps):
        nxt = _rk4_step(p, states[-1], h)
        if nxt is None:
            return states, True
        states.append(nxt)
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
    trace = FlowTrace(params=p, method=method, dt=dt, t_max=t_max)
    if method == "rk4-fixed":
        trace.states, trace.boundary_hit = _rk4(fp, x0, dt, n_steps)
        trace.times = [j * dt for j in range(len(trace.states))]
    else:
        _integrate_rk45(fp, x0, dt, t_max, trace)
    trace.signatures = list(level_signatures(fp, trace.states))
    return trace


def _integrate_rk45(p, x0, dt, t_max, trace):
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        return symmetry_vector.kernel(p, tuple(y))

    def near_boundary(_t, y):
        return float(min(y) - BOUNDARY_EPS)

    near_boundary.terminal = True
    near_boundary.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        x0,
        method="RK45",
        rtol=RK45_TOL,
        atol=RK45_TOL,
        dense_output=True,
        events=near_boundary,
    )
    reached = float(sol.t[-1])
    n_steps = int(math.floor(reached / dt + 1e-9))
    trace.times = [min(j * dt, reached) for j in range(n_steps + 1)]
    trace.states = [tuple(float(v) for v in sol.sol(t)) for t in trace.times]
    trace.boundary_hit = sol.status != 0


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
