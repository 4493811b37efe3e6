"""Workload definitions: the CLI argv each operation runs, and its output check.

Every operation is one `lynesslab.cli.main(argv)` call. Inputs come only from
the benchmark seed, and every pass of a run repeats the same operations; the
program sees nothing but the generated argv. See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# sha256 of the fixed-input figure datasets, pinned at the commit that added
# the benchmark. Any change to these bytes is a failed operation.
FIGURE_SHA256 = {
    "fig1.csv": "9d4836c3bb918288a266d3f939ca9466a9956908864cc828f4e8da3391c462ac",
    "fig1.flow.csv": "a63cfd537aeeef4246ae87e86ebade6e551212033e49998a66ba7e1c19ab3a6b",
    "fig2.csv": "f5e953d217165b7e09a8e24be0710bae13c100195fb09236036c7ecc6fc08cec",
    "fig3.csv": "c1790f68464edb2cc7af712212d95940798c2086457797a8715ab15e633c5711",
}

# Largest relative deviation of V1 from its row-0 value allowed along the
# 10^4-step float orbit. Observed drift is about 1e-14.
FLOAT_V1_DRIFT_TOL = 1e-9

# Sizes of one pass. Operations are kept short (0.03-0.8 s each) so that the
# reference loop run beside each one sees the same host state; see NOTES.md.
VERIFY_OPS = 10           # verify calls per pass, each with its own seed
VERIFY_TRIALS = 2         # random points per suite per call: 72 suites x 2
# Each exact orbit runs until its coordinates are this many bits tall, and
# its reduce runs half as many double-steps. The cost of a fixed number of
# steps grows with the point's height growth rate to about the power 1.6, and
# made pass costs differ by 25 % between seeds; with a fixed final height,
# it is about proportional to the number of steps. Seeded points are added
# until their steps sum to EXACT_PASS_STEPS; the last orbit is cut to fit.
EXACT_HEIGHT_BITS = 1800
EXACT_MAX_STEPS = 200
EXACT_PASS_STEPS = 1250
FLOAT_ORBIT_STEPS = 10000

# Data row of the exact orbit whose height `scalars.height_bits` reports;
# every timed orbit reaches it.
HEIGHT_ROW = 40

# The known exact-orbit crash: `str(Fraction)` passes the int->str digit
# limit at data row 220 of this orbit. It runs once per exact_orbit run,
# untimed, and its outcome is reported apart from the timed operations.
KNOWN_CRASH_X0 = "30/4,32/6,16/1,37/9,20/5"
KNOWN_CRASH_STEPS = 300


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One CLI call, the files it writes and how to check what it produced."""

    label: str
    argv: list
    outputs: list = field(default_factory=list)
    check: object = None      # check(op, stdout, paths); raises CheckFailed on wrong output
    counts_rows: bool = True  # units: data rows written, crash or not; else what check returns
    crash_check: object = None  # the check for what the call wrote before it raised


def random_x0(rng: random.Random, k: int) -> str:
    """Positive rationals p/q, p in 1..50 and q in 1..10, written unreduced."""
    return ",".join(f"{rng.randint(1, 50)}/{rng.randint(1, 10)}" for _ in range(k))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_csv(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def height_bits(path: str, row: int):
    """Largest bit length of a numerator or denominator among the x columns
    of an exact orbit CSV at data row `row`; None if the orbit ended before."""
    with open(path, encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        for n, line in enumerate(fh):
            if n == row:
                # Parsed as ints, not Fractions, to keep gcd calls out of a trace.
                bits = 0
                for name, cell in zip(header, line.rstrip("\n").split(",")):
                    if name.startswith("x"):
                        for part in cell.split("/"):
                            bits = max(bits, abs(int(part)).bit_length())
                return bits
    return None


# ---------------------------------------------------------------- checks


def check_verify(op: Op, stdout: str, paths: list) -> int:
    lines = stdout.strip().splitlines()
    _expect(bool(lines) and lines[-1].startswith("summary: "), "verify printed no summary")
    counts = lines[-1].split()[1]
    ok, _, ran = counts.partition("/")
    with open(paths[0], encoding="utf-8") as fh:
        report = json.load(fh)
    ran_suites = [s for s in report["suites"] if s["trials"]]
    _expect(ok == ran == str(len(ran_suites)), f"verify summary is {counts}, want n/n")
    _expect(report["ok"] is True, "verify report is not ok")
    _expect(all(s["failures"] == 0 for s in ran_suites), "a verify suite failed")
    return sum(s["trials"] for s in ran_suites)


def check_figure(op: Op, stdout: str, paths: list):
    for path in paths:
        name = os.path.basename(path)
        _expect(sha256_file(path) == FIGURE_SHA256[name], f"{name} differs from its pinned sha256")


def check_float_orbit(op: Op, stdout: str, paths: list):
    with open(paths[0], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    _expect(len(rows) == FLOAT_ORBIT_STEPS + 1, f"float orbit has {len(rows)} rows")
    v0 = float(rows[0]["V1"])
    drift = max(abs(float(r["V1"]) - v0) for r in rows) / abs(v0)
    _expect(drift <= FLOAT_V1_DRIFT_TOL, f"float V1 drift {drift:.3e} > {FLOAT_V1_DRIFT_TOL:.0e}")


def _steps(op: Op) -> int:
    return int(op.argv[op.argv.index("--steps") + 1])


def check_exact_orbit(op: Op, stdout: str, paths: list, complete: bool = True):
    """V1/V2/V3 equal to row 0 and signZ alternating on every row written:
    all rows, or at least one when the call crashed (`complete` false)."""
    header, rows = _read_csv(paths[0])
    steps = _steps(op)
    least = steps + 1 if complete else 1
    _expect(least <= len(rows) <= steps + 1, f"exact orbit has {len(rows)} rows")
    cols = {name: i for i, name in enumerate(header)}
    for name in ("V1", "V2", "V3"):
        j = cols[name]
        _expect(all(r[j] == rows[0][j] for r in rows), f"exact {name} is not constant")
    signs = [int(r[cols["signZ"]]) for r in rows]
    _expect(signs[0] != 0, "orbit starts on the invariant hypersurface")
    _expect(all(b == -a for a, b in zip(signs, signs[1:])), "signZ does not alternate")


def check_crashed_exact_orbit(op: Op, stdout: str, paths: list):
    check_exact_orbit(op, stdout, paths, complete=False)


def check_reduce(op: Op, stdout: str, paths: list):
    steps = _steps(op)
    _expect(
        f"semiconjugacy residual over {steps} double-steps: 0\n" in stdout,
        "reduce residual is not 0",
    )
    _, rows = _read_csv(paths[0])
    _expect(len(rows) == steps + 1, f"reduce wrote {len(rows)} rows")


# ------------------------------------------------------------- workloads


def verify_exact(seed: int, out_dir: str) -> list:
    rng = random.Random(f"verify_exact|{seed}")
    ops = []
    for i in range(VERIFY_OPS):
        report = os.path.join(out_dir, f"verify{i}.json")
        argv = [
            "verify", "--k-range", "3..8", "--a", "1", "--trials", str(VERIFY_TRIALS),
            "--seed", str(rng.randrange(2**31)), "--json", report,
        ]
        ops.append(Op(f"verify{i}", argv, [report], check_verify, counts_rows=False))
    return ops


def float_sim(seed: int, out_dir: str) -> list:
    ops = []
    for which in (1, 2, 3):
        out = os.path.join(out_dir, f"fig{which}.csv")
        outputs = [out, os.path.join(out_dir, "fig1.flow.csv")] if which == 1 else [out]
        ops.append(Op(f"figures{which}", ["figures", "--which", str(which), "--out", out], outputs, check_figure))
    x0 = random_x0(random.Random(f"float_sim|{seed}"), 6)
    out = os.path.join(out_dir, "orbit6.jsonl")
    argv = ["orbit", "--k", "6", "--x0", x0, "--steps", str(FLOAT_ORBIT_STEPS), "--format", "jsonl", "--out", out]
    ops.append(Op("orbit_float", argv, [out], check_float_orbit))
    return ops


def exact_orbit_op(label: str, x0: str, steps: int, out: str) -> Op:
    argv = ["orbit", "--k", "5", "--a", "1", "--x0", x0, "--steps", str(steps), "--exact", "--out", out]
    return Op(label, argv, [out], check_exact_orbit, crash_check=check_crashed_exact_orbit)


def steps_to_height(x0: str, bits: int, limit: int) -> int:
    """Steps of the k-dimensional Lyness map with a = 1 until some coordinate
    of the state has a numerator or denominator `bits` bits long (at most
    `limit`), computed here with stdlib Fractions, apart from the program."""
    x = tuple(Fraction(c) for c in x0.split(","))
    for n in range(limit):
        if max(max(abs(v.numerator), v.denominator).bit_length() for v in x) >= bits:
            return n
        x = x[1:] + ((1 + sum(x[1:])) / x[0],)
    return limit


def exact_orbit(seed: int, out_dir: str) -> list:
    rng = random.Random(f"exact_orbit|{seed}")
    ops = []
    left = EXACT_PASS_STEPS
    while left > 0:
        i = len(ops) // 2
        x0 = random_x0(rng, 5)
        steps = min(left, steps_to_height(x0, EXACT_HEIGHT_BITS, EXACT_MAX_STEPS))
        left -= steps
        orbit_out = os.path.join(out_dir, f"orbit5_exact{i}.csv")
        reduce_out = os.path.join(out_dir, f"reduce5_{i}.csv")
        ops.append(exact_orbit_op(f"orbit_exact{i}", x0, steps, orbit_out))
        ops.append(Op(
            f"reduce{i}",
            ["reduce", "--k", "5", "--a", "1", "--x0", x0, "--steps", str(steps // 2), "--out", reduce_out],
            [reduce_out],
            check_reduce,
        ))
    return ops


def known_crash(out_dir: str) -> Op:
    """The exact orbit that reaches the int->str digit limit (see NOTES.md)."""
    out = os.path.join(out_dir, "known_crash.csv")
    return exact_orbit_op("known_crash", KNOWN_CRASH_X0, KNOWN_CRASH_STEPS, out)


@dataclass(frozen=True)
class Workload:
    build: object          # build(seed, out_dir) -> [Op], the operations of one pass
    units: str
    known_crash: bool = False  # also run `known_crash` once, untimed


WORKLOADS = {
    "verify_exact": Workload(verify_exact, "checks"),
    "float_sim": Workload(float_sim, "rows"),
    "exact_orbit": Workload(exact_orbit, "exact rows", known_crash=True),
}
