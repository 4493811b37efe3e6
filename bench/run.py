"""lynesslab benchmark: one workload per call, in fresh single processes.

    python3 bench/run.py --workload verify_exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The command times fresh
interpreters that import the CLI and build its parser (set-up), half of
them before and half after one fresh interpreter that runs the workload's
operations back to back for `--seconds` seconds and checks each operation's
output. A fixed reference loop runs beside every set-up and operation, and
the reported times are divided by its time: they read as seconds on the
reference host's uncontended core (see reference.py and NOTES.md). It
prints a metric table, with the raw times as `raw.*`, and the environment,
then, as its last line, one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from a run whose passes alternate
untraced and traced.

`failed` counts timed operations that raised, exited non-zero, wrote output
that failed its check, or did not repeat byte for byte; `correct` is false
only when some output was wrong, so a crash alone shows up in `failed`. The
known exact-orbit crash is reproduced apart from the timed operations and
printed on its own line. Exit status is 0 with a result, or non-zero with
no result line.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
TIME_LIMIT_S = 170.0  # the whole command, set-up probes included
SETUP_PROBES = 12     # half before, half after the measurement; the median is reported


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # numpy serves only small arrays here. Starting OpenBLAS's thread pool at
    # import is the part of set-up that host load moves most: with it, the
    # median set-up time read 0.20 s in one set of runs and 0.10 s in the next.
    env["OPENBLAS_NUM_THREADS"] = "1"
    # The int->str digit limit stays at the interpreter default, so the known
    # exact-orbit crash shows whatever the caller's environment says.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def _run_child(script, args, deadline: float) -> dict:
    name = os.path.basename(script)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, script, *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} exceeded the time limit") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise BenchError(f"{name} exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{name} printed no result") from None


def _setup_probes(count: int, deadline: float) -> list:
    return [_run_child(SETUP_PROBE, [], deadline) for _ in range(count)]


def _normalised_median(probes: list, key: str) -> float:
    return NOMINAL_S * statistics.median(p[key] / p["ref_s"] for p in probes)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    _setup_probes(1, deadline)  # warm the bytecode cache; not timed
    probes = _setup_probes(SETUP_PROBES // 2, deadline)

    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        result = _run_child(
            WORKER,
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir],
            deadline,
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    probes += _setup_probes(SETUP_PROBES - len(probes), deadline)

    metrics = dict(result["metrics"])
    if args.trace:
        metrics["setup.import_numpy_s"] = (_normalised_median(probes, "import_numpy_s"), "s")
    else:
        metrics["setup_s"] = (_normalised_median(probes, "setup_s"), "s")
    env = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": probes[0]["python"],
        **probes[0]["versions"],
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "passes": result["passes"],
    }
    raw = {}  # medians of the times as measured, for the table only
    if not args.trace:
        env["units_per_pass"] = f'{result["units_per_pass"]:g} {WORKLOADS[args.workload].units}'
        raw = {f"raw.{name}": (value, metrics[name][1]) for name, value in result["raw"].items()}
        raw["raw.setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
    env["setup_probe_s"] = [round(p["setup_s"], 4) for p in probes]
    env["setup_ref_s"] = [round(p["ref_s"], 5) for p in probes]
    return {"env": env, "result": result, "metrics": metrics, "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "lynesslab", "cli.py")):
        print(f"error: no lynesslab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(os.path.join(RUN_DIR, "lock"), "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run is in progress; runs never overlap", file=sys.stderr)
            return 2
        try:
            report = run(args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    res = report["result"]
    for err in res["errors"]:
        print(f"failed operation: {err}")
    fail_ratio = res["failed"] / res["attempted"]
    for name, (value, unit) in sorted({**report["metrics"], **report["raw"]}.items()):
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':44s} {fail_ratio:>16.6g} ratio ({res['failed']}/{res['attempted']})")
    crash = res["known_crash"]
    if crash:
        outcome = f"failed after {crash['rows']} data rows: {crash['error']}" if crash["error"] else "ok"
        print(f"known crash ({crash['argv']}): {outcome}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
