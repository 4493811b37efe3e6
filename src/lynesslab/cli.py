"""Command-line surface: identity verification suites and dataset export.

Subcommands
-----------
verify   run the exact identity suites over a k range; exit 0 only if all pass
orbit    iterate the map and export states plus conserved levels (CSV/JSONL)
flow     integrate the symmetry field and report conservation drift
reduce   replay the double-step in reduced coordinates, check the projection
figures  canned orbit/flow datasets (three presets)

Exit codes: 0 success, 1 verification failure, 2 usage or validation error
or an output that cannot be written, stdout included. A verification failure
is a `verify` suite that failed, or an exact `orbit` whose last state is off
row 0's levels, which every row carries (`invariants.orbit_levels`); the
latter is one `error:` line after the rows.
Rational inputs are accepted as `p/q` text so exact runs stay exact. A
command parses its text and leaves the check of every value the library
takes (k, a, x0, dt, t_max) to the library; `main` reports any ValueError,
argparse's usage errors and the library's DomainError and DimensionError
included, as one `error:` line with exit code 2.
The environment variable LYNESS_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import operator
import os
import sys
from fractions import Fraction

from .flow import METHODS, integrate_flow, invariant_drift
from .errors import VerificationError
from .invariants import eval_w, orbit_levels
from .lyness import Params, float_point, orbit, require_point
from .reduction import replay
from .scalars import parse_rational
from .verify import FAIL, run_suites

_METHOD_ALIASES = {"rk4": METHODS[0], "rk45": METHODS[1]}


class CliError(ValueError):
    """Usage or validation problem; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are CliErrors, so `main` reports
    them like every other input error."""

    def error(self, message):
        raise CliError(message)


def _default_seed() -> int:
    raw = os.environ.get("LYNESS_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"LYNESS_SEED must be an integer, got {raw!r}") from None


def _parse_x0(text: str) -> tuple:
    return tuple(map(parse_rational, text.split(",")))


def _parse_proj(text, k: int):
    if text is None:
        return tuple(range(1, k + 1))
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise CliError(f"--proj needs three comma-separated indices, got {len(parts)}")
    try:
        idx = tuple(int(s) for s in parts)
    except ValueError:
        raise CliError(f"--proj indices must be integers, got {text!r}") from None
    if len(set(idx)) != 3 or not all(1 <= i <= k for i in idx):
        raise CliError(f"--proj indices must be distinct and within 1..{k}")
    return idx


@contextlib.contextmanager
def _output(path, *opened):
    """Text handle for path, closed on exit; stdout when no path was given.
    If path cannot be opened, the files `opened` for the same run are
    removed, so an input error leaves no file. A reader of path that closes
    early (a FIFO) is the same error; no stdout is written while the handle
    is open, so the broken pipe is path's."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        for done in opened:
            os.remove(done)
        raise CliError(f"cannot write {path!r}: {exc}") from None
    try:
        with fh:
            yield fh
    except BrokenPipeError as exc:
        raise CliError(f"cannot write {path!r}: {exc}") from None


@contextlib.contextmanager
def _full_digits():
    """Lift the int->str digit limit while exact output is formatted, so exact
    values of any height print in full; input parsing keeps the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- verify


def _resolve_ks(args) -> list:
    if args.k_range is None:
        return [args.k]
    text = args.k_range
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise CliError(f"--k-range must look like 3..8, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise CliError(f"--k-range is empty: {text!r}")
    return list(range(lo, hi + 1))


def cmd_verify(args) -> int:
    ks = _resolve_ks(args)
    a = parse_rational(args.a)
    seed = args.seed if args.seed is not None else _default_seed()

    results = []
    for k in ks:
        results.extend(run_suites(k, a, args.trials, seed))
    ran = [r for r in results if r.trials]
    failed = [r for r in results if r.status == FAIL]
    # the report is written before the first line is printed, so a path that
    # cannot be written is an input error with nothing on stdout
    if args.json is not None:
        payload = {
            "ks": ks,
            "a": str(a),
            "trials": args.trials,
            "seed": seed,
            "ok": not failed,
            "suites": [{**vars(r), "a": str(r.a)} for r in results],
        }
        with _output(args.json) as report:
            report.write(json.dumps(payload, indent=2) + "\n")  # one write, not one per token
    for res in results:
        print(res.line())
    print(
        f"summary: {len(ran) - len(failed)}/{len(ran)} suites ok"
        f" (k={','.join(str(k) for k in ks)}, a={a},"
        f" trials={args.trials}, seed={seed})"
    )
    return 1 if failed else 0


# ----------------------------------------------------------- orbit rows


def _level_text(limit: int = 1024):
    """v -> str(v) for one column of an orbit's levels, keeping the text of up
    to `limit` nonzero floats (then starting again): along a float orbit V1,
    V2 and V3 take few distinct values, and a float's `repr` costs about ten
    dict lookups. 0.0 and -0.0 are equal keys with different texts, and
    hashing a `Fraction` costs more than its `str`, so neither is kept by
    value; the last one is kept by identity, as exact rows carry one object."""
    texts, last = {}, (None, "None")

    def text(v):
        nonlocal last
        if type(v) is not float or not v:
            if v is not last[0]:
                last = v, str(v)
            return last[1]
        t = texts.get(v)
        if t is None:
            if len(texts) >= limit:
                texts.clear()
            t = texts[v] = repr(v)
        return t

    return text


def _write_orbit(p: Params, x0, steps: int, proj, fmt: str, fh) -> None:
    """Rows of the orbit of x0, exact or float as x0 is, from a start that
    `float_point` or `require_point` has checked. F shifts a state and adds
    one coordinate (the contract by which `orbit` checks only the added one),
    so each row formats only its added coordinate x[-1] and takes the text
    of the other k-1 from a window of the last k; a level takes its text from
    its column's `_level_text`. A float orbit ends early, with one warning,
    where `orbit` or `orbit_levels` ends: before the first state that leaves
    the domain or whose levels overflow float64. An exact orbit whose last
    state is off row 0's levels raises VerificationError after its last row."""
    header = ["n"] + [f"x{i}" for i in proj] + ["V1", "V2"] + ["V3", "signZ"] * (p.k % 2)
    if fmt == "csv":
        fh.write(",".join(header) + "\n")
        template = ",".join(["%s"] * len(header)) + "\n"
    else:  # a cell holds only digits and . e + - /, which json.dumps does not escape,
        # so filling this with str(cell) gives json.dumps(dict(zip(header, row)))
        template = json.dumps(dict.fromkeys(header, "%s")) + "\n"
    pick = operator.itemgetter(*(i - 1 for i in proj))
    odd = p.k % 2 == 1
    cells = collections.deque(map(str, x0[:-1]), maxlen=p.k)  # row 0 appends str(x0[-1])
    text1, text2, text3 = _level_text(), _level_text(), _level_text()
    n = 0  # rows written
    for x, (v1, v2, v3, z) in orbit_levels(p, orbit.kernel(p, x0, steps)):
        cells.append(str(x[-1]))
        levels = (text1(v1), text2(v2), text3(v3), z) if odd else (text1(v1), text2(v2))
        fh.write(template % (n, *pick(cells), *levels))
        n += 1
    if n <= steps:
        print(f"warning: float orbit truncated (domain boundary or float64 range) at step {n}", file=sys.stderr)


def cmd_orbit(args) -> int:
    p = Params(args.k, parse_rational(args.a))
    x0 = _parse_x0(args.x0)
    proj = _parse_proj(args.proj, p.k)
    if args.steps < 0:
        raise CliError(f"--steps must be >= 0, got {args.steps}")
    p, x0 = (p, require_point(p, x0)) if args.exact else float_point(p, x0)
    digits = _full_digits() if args.exact else contextlib.nullcontext()
    with digits, _output(args.out) as fh:
        _write_orbit(p, x0, args.steps, proj, args.format, fh)
    return 0


# ----------------------------------------------------------------- flow


def _write_flow_csv(trace, proj, fh) -> None:
    odd = trace.params.k % 2 == 1
    header = ["t"] + [f"x{i}" for i in proj] + ["V1", "V2"] + ["V3"] * odd
    fh.write(",".join(header) + "\n")
    template = ",".join(["%r"] * len(header)) + "\n"
    pick = operator.itemgetter(*(i - 1 for i in proj))
    for t, x, (v1, v2, v3, _) in zip(trace.times, trace.states, trace.signatures):
        fh.write(template % ((t, *pick(x), v1, v2, v3) if odd else (t, *pick(x), v1, v2)))


def cmd_flow(args) -> int:
    p = Params(args.k, parse_rational(args.a))
    proj = _parse_proj(args.proj, p.k)
    method = _METHOD_ALIASES[args.method]
    # the float run computes with a in float64; the report prints p.a as given
    trace = integrate_flow(p, _parse_x0(args.x0), args.dt, args.t_max, method=method)

    if args.out is not None:
        with _output(args.out) as fh:
            _write_flow_csv(trace, proj, fh)

    if trace.boundary_hit:
        print(
            "warning: trajectory truncated (domain boundary or float64 range)"
            f" at t={(trace.times or [0.0])[-1]!r}",
            file=sys.stderr,
        )
    drift = invariant_drift(trace)
    print(
        f"flow k={p.k} a={p.a} method={method} dt={args.dt!r}"
        f" t_max={args.t_max!r} samples={len(trace.times)}"
    )
    for name in ("v1", "v2", "v3"):
        if name in drift:
            print(f"relative drift {name.upper()} = {drift[name]:.3e}")
    if drift:
        print(f"max relative drift = {max(drift.values()):.3e}")
    else:
        print("max relative drift = n/a (fewer than 2 samples)")
    return 0


# --------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    p = Params(args.k, parse_rational(args.a))
    x0 = _parse_x0(args.x0)
    rows = replay(p, x0, args.steps)  # checks k, steps and x0 before any output

    names = ["y1", "y2"] if p.k == 3 else ["y1", "y2", "y3", "y4"]
    residual = 0
    with _full_digits():
        with _output(args.out) as fh:
            fh.write(",".join(["n"] + names) + "\n")
            shifted = ()  # (coordinate, text) of the row before
            for n, (y, gap) in enumerate(rows):
                # a row shifts in coordinates of the row before; those keep their text
                texts = [next((t for c0, t in shifted if c0 is c), None) or str(c) for c in y]
                fh.write(",".join([str(n), *texts]) + "\n")
                shifted = tuple(zip(y, texts))
                residual = max(residual, gap)
        print(f"kappa = {1 / eval_w.kernel(p, x0)}")  # x0 passed replay's check
        print(f"semiconjugacy residual over {args.steps} double-steps: {residual}")
    return 0


# -------------------------------------------------------------- figures

_FIGURE_PRESETS = {
    1: {"k": 4, "a": Fraction(4), "x0": (1, 2, 3, 4), "steps": 2000, "proj": (1, 2, 3)},
    2: {"k": 5, "a": Fraction(1), "x0": (1, 2, 3, 4, 5), "steps": 5000, "proj": None},
    3: {"k": 5, "a": Fraction(4), "x0": (1, 2, 3, 4, 5), "steps": 10000, "proj": None},
}


def _flow_sibling(path: str) -> str:
    stem = path[:-4] if path.endswith(".csv") else path
    return stem + ".flow.csv"


def cmd_figures(args) -> int:
    preset = _FIGURE_PRESETS[args.which]
    p, x0 = float_point(Params(preset["k"], preset["a"]), preset["x0"])
    proj = preset["proj"] or tuple(range(1, p.k + 1))
    flow_path = _flow_sibling(args.out) if args.out else None
    written = [args.out] + [flow_path] * (args.which == 1)

    # the flow output is open before the orbit is written, and the orbit file
    # goes if it cannot be opened
    flow_out = _output(flow_path, args.out) if args.which == 1 else contextlib.nullcontext()
    with _output(args.out) as fh, flow_out as flow_fh:
        _write_orbit(p, x0, preset["steps"], proj, "csv", fh)
        if args.which == 1:
            _write_flow_csv(integrate_flow(p, x0, 1e-3, 10.0, method=METHODS[0]), proj, flow_fh)

    print(f"figure {args.which}: wrote {', '.join(path or '<stdout>' for path in written)}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- main


@functools.cache  # parse_args leaves the parser as it was, so every main call shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lyness-lab",
        description="Verification and simulation laboratory for the k-dimensional Lyness map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact identity suites")
    group = pv.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, help="single dimension to test")
    group.add_argument("--k-range", dest="k_range", help="inclusive range, e.g. 3..8")
    pv.add_argument("--a", default="1", help="parameter a as p/q text (default 1)")
    pv.add_argument("--trials", type=int, default=100, help="random points per suite")
    pv.add_argument("--seed", type=int, default=None, help="RNG seed (default LYNESS_SEED or 0)")
    pv.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")
    pv.set_defaults(func=cmd_verify, k=3)

    start = argparse.ArgumentParser(add_help=False)  # the map and start point of a run
    start.add_argument("--k", type=int, required=True)
    start.add_argument("--a", default="1", help="parameter a as p/q text (default 1)")
    start.add_argument("--x0", required=True, help="initial point, comma-separated rationals")

    po = sub.add_parser("orbit", parents=[start], help="iterate the map and export the orbit")
    po.add_argument("--steps", type=int, default=1000)
    po.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    po.add_argument("--proj", default=None, help="emit only these coordinates, e.g. 1,2,3")
    po.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    po.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    po.set_defaults(func=cmd_orbit)

    pf = sub.add_parser("flow", parents=[start], help="integrate the symmetry field")
    pf.add_argument("--dt", type=float, default=1e-3, help="step size / output spacing")
    pf.add_argument("--t-max", dest="t_max", type=float, default=10.0)
    pf.add_argument("--method", choices=tuple(_METHOD_ALIASES), default="rk4")
    pf.add_argument("--proj", default=None, help="emit only these coordinates, e.g. 1,2,3")
    pf.add_argument("--out", default=None, metavar="PATH", help="CSV output file")
    pf.set_defaults(func=cmd_flow)

    pr = sub.add_parser("reduce", parents=[start], help="reduced-coordinate replay of the double-step")
    pr.add_argument("--steps", type=int, default=100)
    pr.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    pr.set_defaults(func=cmd_reduce)

    pg = sub.add_parser("figures", help="canned figure datasets")
    pg.add_argument("--which", type=int, required=True, choices=(1, 2, 3))
    pg.add_argument("--out", default=None, metavar="PATH", help="CSV path (default stdout)")
    pg.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # CliError, DomainError, DimensionError, a bad literal
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:  # the reader closed stdout; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write <stdout>: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
