"""Outside-in tracing of lynesslab: spans recorded around public functions.

Nothing under src/ is edited. `Tracer.install` replaces each traced function
with a timing wrapper in every lynesslab module that holds a reference to it,
either as a module attribute (including `from .x import f` aliases) or as a
value of a module-level dict (such as the evaluator tables). `uninstall`
puts every original back. Stdlib `fractions` reaches gcd through its own
`math` global, so the gcd shim swaps that global for a namespace whose gcd
is wrapped.

Spans are aggregated in memory per name: calls, total time and self time,
where self time is a span's duration minus the part of it covered by its
child spans. One parent/child pair, `DIRECT`, also has its direct calls
counted: RK4 field evaluations are symmetry_vector calls made while
integrate_flow is the innermost open span.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Layer -> {module: public functions traced}. The layer of a span is the
# first component of its name ("kernels.symmetry.symmetry_vector").
LAYERS = {
    "scalars": {
        "scalars": ("gradient", "exact_rank", "parse_rational"),
        "sampling": ("random_point", "random_rational", "stream"),
    },
    "kernels": {
        "lyness": ("require_point", "step", "inverse_step", "jacobian", "jacobian_det", "iterate"),
        "invariants": (
            "eval_v1", "eval_v2", "eval_v3", "eval_w", "eval_z", "eval_pi",
            "z_sign", "level_signature",
        ),
        "symmetry": (
            "symmetry_vector", "lie_residual", "shift_residual", "compatibility_residual",
            "annihilation_residual", "factorization_residual",
        ),
        "reduction": ("reduced_step_k3", "reduced_step_k5", "lift_k3", "lift_k5", "project"),
    },
    "drivers": {
        "verify": ("run_suites",),
        "flow": ("integrate_flow", "invariant_drift"),
        "dynamics": ("orbit_signature", "measure_density_residual"),
        "reduction": ("semiconjugacy_residual",),
    },
    "cli": {
        "cli": ("main", "cmd_verify", "cmd_orbit", "cmd_flow", "cmd_reduce", "cmd_figures"),
    },
}


# (parent, child): calls of child made directly inside parent are counted.
DIRECT = ("drivers.flow.integrate_flow", "kernels.symmetry.symmetry_vector")


class SpanStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Aggregating span recorder; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.direct_calls = 0  # calls of DIRECT[1] made directly inside DIRECT[0]
        self._stack = []  # [name, child_time] per open span
        self._undo = []   # (setter, container, key, original)

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock
        direct_parent = DIRECT[0] if name == DIRECT[1] else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if direct_parent and stack and stack[-1][0] == direct_parent:
                self.direct_calls += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += duration
                stats.self += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped_original__ = fn
        return traced

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every traced function wherever lynesslab refers to it, and gcd."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lynesslab" or n.startswith("lynesslab."))
        ]
        for layer, by_module in LAYERS.items():
            for mod_name, funcs in by_module.items():
                home = sys.modules[f"lynesslab.{mod_name}"]
                for func in funcs:
                    original = getattr(home, func)
                    wrapper = self.wrap(f"{layer}.{mod_name}.{func}", original)
                    self._rebind(modules, original, wrapper)
        self._shim_gcd()

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set(setattr, mod, attr, wrapper, original)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(dict.__setitem__, value, key, wrapper, original)

    def _set(self, setter, container, key, new, original):
        setter(container, key, new)
        self._undo.append((setter, container, key, original))

    def _shim_gcd(self):
        import fractions
        import math

        shim = types.SimpleNamespace(**{n: getattr(math, n) for n in dir(math) if not n.startswith("__")})
        shim.gcd = self.wrap("scalars.fractions.gcd", math.gcd)
        self._set(setattr, fractions, "math", shim, fractions.math)

    def uninstall(self):
        while self._undo:
            setter, container, key, original = self._undo.pop()
            setter(container, key, original)

    # ------------------------------------------------------------ results

    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return s.calls if s else 0

    def self_s(self, name: str) -> float:
        s = self.stats.get(name)
        return s.self if s else 0.0

    def total_s(self, name: str) -> float:
        s = self.stats.get(name)
        return s.total if s else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self for n, s in self.stats.items() if n.split(".", 1)[0] == layer)
