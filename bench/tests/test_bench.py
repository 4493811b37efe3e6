"""Tests of the benchmark's own code: span accounting, rebinding, crash counting.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import fractions
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import lynesslab  # noqa: E402
import lynesslab.cli  # noqa: E402
from tracer import DIRECT, LAYERS, Tracer  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from worker import OpResult, Session, pass_time, run_op  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_CRASH_STEPS, WORKLOADS, Op, check_crashed_exact_orbit, check_exact_orbit, height_bits, known_crash,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap("kernels.leaf", leaf)

    def parent():
        clock.now += 1.0
        leaf()
        clock.now += 0.5
        leaf()
        clock.now += 0.25

    tracer.wrap("drivers.parent", parent)()

    assert tracer.total_s("drivers.parent") == 5.75
    assert tracer.self_s("drivers.parent") == 5.75 - 4.0
    assert tracer.calls("kernels.leaf") == 2
    assert tracer.self_s("kernels.leaf") == 4.0
    assert tracer.layer_self_s("kernels") == 4.0


def test_direct_calls_count_only_the_child_directly_inside_the_parent():
    tracer = Tracer()
    child = tracer.wrap(DIRECT[1], lambda: None)
    middle = tracer.wrap("kernels.middle", child)

    def parent():
        child()
        child()
        middle()

    tracer.wrap(DIRECT[0], parent)()
    child()
    assert tracer.calls(DIRECT[1]) == 4
    assert tracer.direct_calls == 2


def test_self_time_is_recorded_when_the_span_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 3.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("kernels.boom", boom)()
    assert tracer.calls("kernels.boom") == 1
    assert tracer.self_s("kernels.boom") == 3.0


def _holders(original):
    """Every (module, attribute) in the package bound to `original`."""
    return sorted(
        (name, attr)
        for name, mod in sys.modules.items()
        if name == "lynesslab" or name.startswith("lynesslab.")
        for attr, value in vars(mod).items()
        if value is original
    )


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    targets = [
        (f"lynesslab.{mod}", func)
        for by_module in LAYERS.values()
        for mod, funcs in by_module.items()
        for func in funcs
    ]
    originals = {t: getattr(sys.modules[t[0]], t[1]) for t in targets}
    holders = {t: _holders(fn) for t, fn in originals.items()}
    # `from .lyness import step` aliases exist in several modules
    assert len(holders[("lynesslab.lyness", "step")]) >= 5
    gcd_module = fractions.math

    tracer = Tracer()
    tracer.install()
    try:
        for t, fn in originals.items():
            for mod, attr in holders[t]:
                wrapped = getattr(sys.modules[mod], attr)
                assert wrapped is not fn and wrapped.__wrapped_original__ is fn, (mod, attr)
        assert lynesslab.invariants._EVALUATORS["V1"] is not originals[("lynesslab.invariants", "eval_v1")]
        assert fractions.math is not gcd_module
        assert fractions.Fraction(6, 4) + fractions.Fraction(1, 2) == 2
        assert tracer.calls("scalars.fractions.gcd") > 0
    finally:
        tracer.uninstall()

    for t, fn in originals.items():
        assert _holders(fn) == holders[t], t
    assert lynesslab.invariants._EVALUATORS["V1"] is originals[("lynesslab.invariants", "eval_v1")]
    assert fractions.math is gcd_module is math


def test_traced_verify_counts_layers_and_keeps_output(tmp_path):
    tracer = Tracer()
    op = WORKLOADS["verify_exact"].build(0, str(tmp_path))[0]
    op.argv[op.argv.index("--k-range") + 1] = "3..3"
    plain = run_op(op)
    tracer.install()
    try:
        traced = run_op(op)
    finally:
        tracer.uninstall()
    assert plain.error is None and traced.error is None
    assert traced.digest == plain.digest
    assert tracer.calls("kernels.symmetry.symmetry_vector") > 0
    assert tracer.calls("cli.cli.cmd_verify") == 1
    assert tracer.calls("scalars.fractions.gcd") > 1000


def test_a_crashing_operation_is_counted_not_raised(tmp_path):
    def crash(argv):
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    res = run_op(Op("orbit_exact", ["orbit"], [], check_exact_orbit), main=crash)
    assert res.error.startswith("ValueError: Exceeds the limit")
    assert not res.wrong


def test_a_crashed_orbit_with_a_bad_v_column_is_wrong(tmp_path):
    out = tmp_path / "o.csv"
    good = "n,x1,x2,x3,x4,x5,V1,V2,V3,signZ\n0,1,2,3,4,5,7/2,9,11,1\n1,2,3,4,5,1/3,7/2,9,11,-1\n"

    def crash_after(text):
        def main(argv):
            out.write_text(text)
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")
        return main

    argv = ["orbit", "--steps", "300"]
    op = Op("orbit_exact", argv, [str(out)], check_exact_orbit, crash_check=check_crashed_exact_orbit)
    res = run_op(op, main=crash_after(good))
    assert res.error.startswith("ValueError: Exceeds the limit") and not res.wrong
    assert res.units == 2

    res = run_op(op, main=crash_after(good.replace("1/3,7/2", "1/3,7/3")))
    assert res.wrong and "V1 is not constant" in res.error and "Exceeds the limit" in res.error
    res = run_op(op, main=crash_after(good.replace("11,-1", "11,1")))
    assert res.wrong and "signZ" in res.error


def test_height_bits_reads_the_x_columns_of_one_row(tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("n,x1,x2,V1,signZ\n0,1,2,99999/7,1\n1,-1023/4,5,99999/7,-1\n")
    assert height_bits(str(out), 1) == 10
    assert height_bits(str(out), 2) is None


def test_nonzero_exit_and_bad_output_are_failures(tmp_path):
    res = run_op(Op("bad", ["orbit", "--k", "1", "--x0", "1"], []))
    assert res.error == "exit code 2" and not res.wrong

    out = tmp_path / "o.csv"

    def short(argv):  # a 3-step orbit that wrote only row 0
        out.write_text("n,x1,V1,V2,V3,signZ\n0,1,2,3,4,1\n")
        return 0

    res = run_op(Op("short", ["orbit", "--steps", "3"], [str(out)], check_exact_orbit), main=short)
    assert res.wrong and "rows" in res.error


def test_a_repeat_with_different_bytes_is_a_failure(tmp_path):
    session = Session(WORKLOADS["exact_orbit"], 0, str(tmp_path))
    first = run_op(Op("x", ["orbit", "--k", "3", "--x0", "1,1,3", "--steps", "2", "--exact"], []))
    second = run_op(Op("x", ["orbit", "--k", "3", "--x0", "1,1,3", "--steps", "2", "--exact"], []))
    session._record(first)
    session._record(second)
    assert session.summary()["failed"] == 0
    session._record(dataclasses.replace(second, digest="0" * 64))
    assert session.summary() == {
        "attempted": 3, "failed": 1, "wrong": 1,
        "errors": ["x: output differs between two runs of x"],
        "known_crash": None,
    }


def test_pass_time_sums_each_operations_median_repeat():
    def res(wall, ratio):
        return OpResult("x", (), wall, wall / 2, 1, None, False, "", 0, 0, ratio, ratio / 2)

    passes = [[res(1.0, 10), res(5.0, 30)], [res(2.0, 20), res(3.0, 60)], [res(0.5, 40), res(4.0, 50)]]
    assert pass_time(passes, "wall") == 1.0 + 4.0
    assert pass_time(passes, "cpu") == (1.0 + 4.0) / 2
    assert pass_time(passes, "norm_wall") == pytest.approx(NOMINAL_S * (20 + 50))


def test_known_exact_orbit_crash_is_counted_and_its_rows_checked(tmp_path):
    """The int->str digit limit ends this exact orbit at data row 220."""
    res = run_op(known_crash(str(tmp_path)))
    assert res.error.startswith("ValueError: Exceeds the limit") and not res.wrong
    assert 0 < res.units == res.rows < KNOWN_CRASH_STEPS + 1
