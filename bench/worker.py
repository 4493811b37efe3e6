"""Measurement process: runs one workload's operations in a closed loop.

`run.py` starts this file in a fresh interpreter, once per measurement, with
`src` on the import path. It prints one JSON object as its last stdout line.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 --out-dir D
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import NOMINAL_S, reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import HEIGHT_ROW, WORKLOADS, CheckFailed, height_bits, known_crash  # noqa: E402


@dataclass
class OpResult:
    label: str
    argv: tuple
    wall: float
    cpu: float
    units: int
    error: str      # None when the operation succeeded and passed its check
    wrong: bool     # the output (complete, or written before a crash) failed its check
    digest: str
    rows: int
    nbytes: int
    norm_wall: float = 0.0  # wall / wall of the reference loop run beside it
    norm_cpu: float = 0.0   # the same for CPU time


def _cli_main(argv):
    # Looked up at call time so that a traced run goes through the wrapper.
    import lynesslab.cli

    return lynesslab.cli.main(argv)


def run_op(op, main=_cli_main) -> OpResult:
    """Run one operation; a crash or a failed check is recorded, never raised."""
    for path in op.outputs:  # no stale file from an earlier pass may pass a check
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(op.argv))
    except Exception as exc:  # the operation boundary: count it and go on
        code = None
        error = traceback.format_exception_only(type(exc), exc)[-1].strip()[:300]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if error is None and code != 0:
        error = f"exit code {code}"

    stdout = out.getvalue()
    checked, wrong = 0, False
    check = op.check if error is None else op.crash_check
    if check is not None:
        try:
            checked = check(op, stdout, op.outputs) or 0
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            after = f" (after {error})" if error else ""
            error, wrong = f"check failed: {exc}{after}", True

    h = hashlib.sha256(f"{code}|{error if not wrong else ''}|".encode())
    h.update(stdout.encode())
    rows, nbytes = 0, len(stdout.encode())
    for path in op.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(data)
            rows += data.count(b"\n") - (1 if path.endswith(".csv") and data else 0)
            nbytes += len(data)
    units = rows if op.counts_rows else checked
    return OpResult(op.label, tuple(op.argv), wall, cpu, units, error, wrong, h.hexdigest(), rows, nbytes)


class Session:
    """The passes of one measurement, plus the output-determinism record."""

    def __init__(self, workload, seed: int, out_dir: str):
        self.workload = workload
        self.out_dir = out_dir
        self.ops = workload.build(seed, out_dir)  # every pass runs these
        self.results = []   # every OpResult of the passes
        self.digests = {}   # argv -> digest of the first run of that argv
        self.heights = []   # exact-orbit heights at HEIGHT_ROW, from traced passes
        self.crash = None   # OpResult of the known-crash orbit, if the workload runs it

    def run_pass(self, traced: bool = False) -> list:
        """Run every operation once. Untraced, each runs between two runs of
        the reference loop. Traced, the loop is left out, since the gcd shim
        would count its calls, and exact-orbit heights are read instead."""
        results = []
        before = None if traced else reference()
        for op in self.ops:
            res = run_op(op)
            if not traced:
                after = reference()
                res.norm_wall = res.wall * 2 / (before[0] + after[0])
                res.norm_cpu = res.cpu * 2 / (before[1] + after[1])
                before = after
            elif op.label.startswith("orbit_exact"):
                bits = height_bits(op.outputs[0], HEIGHT_ROW)
                if bits is not None:
                    self.heights.append(bits)
            self._record(res)
            results.append(res)
        return results

    def run_known_crash(self):
        """Run the known-crash orbit once, untimed and outside `failed`; rows
        it wrote that fail their check still make the run's output wrong."""
        if self.workload.known_crash:
            self.crash = run_op(known_crash(self.out_dir))

    def _record(self, res: OpResult):
        first = self.digests.setdefault(res.argv, res.digest)
        if first != res.digest:
            res.error = f"output differs between two runs of {res.label}"
            res.wrong = True
        self.results.append(res)

    def summary(self) -> dict:
        failed = [r for r in self.results if r.error]
        crash = self.crash
        return {
            "attempted": len(self.results),
            "failed": len(failed),
            "wrong": sum(r.wrong for r in self.results) + bool(crash and crash.wrong),
            "errors": sorted({f"{r.label}: {r.error}" for r in failed}),
            "known_crash": None if crash is None else {
                "argv": " ".join(crash.argv[:-2]), "error": crash.error, "rows": crash.rows,
            },
        }


def _closed_loop(seconds: float, run_one):
    """Start passes back to back until `seconds` have passed."""
    count = 0
    start = time.perf_counter()
    while count == 0 or time.perf_counter() - start < seconds:
        run_one()
        count += 1


def pass_time(passes: list, attr: str) -> float:
    """The time of one pass: each operation's median over the run's passes,
    summed over the operations. With a `norm_` attribute it is in reference
    seconds (see reference.py)."""
    scale = NOMINAL_S if attr.startswith("norm_") else 1.0
    return scale * sum(statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0])))


def measure(workload_name: str, seed: int, seconds: float, out_dir: str) -> dict:
    session = Session(WORKLOADS[workload_name], seed, out_dir)
    passes = []
    _closed_loop(seconds, lambda: passes.append(session.run_pass()))
    session.run_known_crash()

    wall = pass_time(passes, "norm_wall")
    units = sum(r.units for r in passes[0])
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (pass_time(passes, "norm_cpu"), "s"),
        "units_per_s": (units / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = pass_time(passes, "wall")
    return {**session.summary(), "passes": len(passes), "metrics": metrics, "units_per_pass": units,
            "raw": {"wall_s": raw, "cpu_s": pass_time(passes, "cpu"), "units_per_s": units / raw}}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass per-layer metrics from the spans of the traced passes."""
    per = 1.0 / passes
    evals = [f"kernels.invariants.{f}" for f in LAYERS["kernels"]["invariants"] if f.startswith("eval_")]
    reduced = ("kernels.reduction.reduced_step_k3", "kernels.reduction.reduced_step_k5")
    out = {
        "symmetry.symmetry_vector.calls": (tracer.calls("kernels.symmetry.symmetry_vector"), "count"),
        "symmetry.symmetry_vector.self_s": (tracer.self_s("kernels.symmetry.symmetry_vector"), "s"),
        "lyness.require_point.calls": (tracer.calls("kernels.lyness.require_point"), "count"),
        "lyness.require_point.self_s": (tracer.self_s("kernels.lyness.require_point"), "s"),
        "lyness.step.calls": (tracer.calls("kernels.lyness.step"), "count"),
        "lyness.step.self_s": (tracer.self_s("kernels.lyness.step"), "s"),
        "reduction.reduced_step.calls": (sum(tracer.calls(n) for n in reduced), "count"),
        "reduction.reduced_step.self_s": (sum(tracer.self_s(n) for n in reduced), "s"),
        "invariants.eval.calls": (sum(tracer.calls(n) for n in evals), "count"),
        "invariants.eval.self_s": (sum(tracer.self_s(n) for n in evals), "s"),
        "scalars.gcd.calls": (tracer.calls("scalars.fractions.gcd"), "count"),
        "scalars.gcd.s": (tracer.total_s("scalars.fractions.gcd"), "s"),
        "scalars.gradient.self_s": (tracer.self_s("scalars.scalars.gradient"), "s"),
        "sampling.random_point.self_s": (tracer.self_s("scalars.sampling.random_point"), "s"),
        "verify.run_suites.self_s": (tracer.self_s("drivers.verify.run_suites"), "s"),
        "reduction.semiconjugacy_residual.self_s": (
            tracer.self_s("drivers.reduction.semiconjugacy_residual"), "s"),
        "flow.integrate_flow.self_s": (tracer.self_s("drivers.flow.integrate_flow"), "s"),
        "flow.field_evals": (tracer.direct_calls, "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    return {name: (value * per, unit) for name, (value, unit) in out.items()}


def measure_traced(workload_name: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Pairs of an untraced and a traced pass over the same inputs."""
    session = Session(WORKLOADS[workload_name], seed, out_dir)
    tracer = Tracer()
    plain, traced = [], []

    def run_pair():
        plain.append(session.run_pass())
        tracer.install()
        try:
            traced.append(session.run_pass(traced=True))
        finally:
            tracer.uninstall()

    _closed_loop(seconds, run_pair)
    session.run_known_crash()
    n = len(traced)
    metrics = layer_metrics(tracer, n)
    # Raw times: traced passes do not run the reference loop.
    metrics["trace.overhead_s"] = (pass_time(traced, "wall") - pass_time(plain, "wall"), "s")
    heights = session.heights
    metrics["scalars.height_bits"] = (statistics.mean(heights) if heights else 0, "bits")
    metrics["cli.rows_written"] = (sum(r.rows for p in traced for r in p) / n, "count")
    metrics["cli.bytes_written"] = (sum(r.nbytes for p in traced for r in p) / n, "bytes")
    crash = session.crash
    metrics["cli.known_crash_rows"] = (crash.rows if crash else 0, "count")
    return {**session.summary(), "passes": n, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    # Set-up is timed by the probes, not here; loading every module first
    # also lets the tracer find all the names it rebinds.
    import lynesslab.cli  # noqa: F401

    run = measure_traced if args.trace else measure
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
